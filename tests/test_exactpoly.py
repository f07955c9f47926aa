"""Truncated polynomial ring and series arithmetic."""

import math
import random
import re
from fractions import Fraction

import pytest

from rslab.errors import InputError
from rslab.exactpoly import (
    TruncatedPoly,
    _reduced,
    series_exp,
    series_inverse,
    series_log,
)


def _poly(coeffs, cutoff=8, var="x"):
    return TruncatedPoly((var,), (cutoff,), {(k,): v for k, v in coeffs.items()})


def test_binomial_expansion():
    one_plus_x = _poly({0: 1, 1: 1})
    fifth = one_plus_x**5
    assert [fifth.coefficient((k,)) for k in range(6)] == [1, 5, 10, 10, 5, 1]
    assert fifth.coefficient((6,)) == 0


def test_repr_lists_terms_by_degree():
    coeffs = {(0, 0): Fraction(-1, 2), (1, 0): 1, (0, 1): Fraction(2, 3), (2, 1): 3,
              (1, 1): -1, (0, 2): 1}
    p = TruncatedPoly(("x", "y"), (3, 3), coeffs)
    assert repr(p) == "-1/2 + 2/3*y + x + y^2 - x*y + 3*x^2*y"
    assert repr(-p) == "1/2 - 2/3*y - x - y^2 + x*y - 3*x^2*y"
    assert repr(TruncatedPoly(("h",), (2,))) == "0"


def test_truncation_drops_high_terms():
    p = TruncatedPoly(("x",), (3,), {(0,): 1, (1,): 1})
    q = p**5
    assert q.coefficient((3,)) == 10
    # degree-4 and higher terms never exist in this ring
    assert q.coefficient((4,)) == 0


def test_two_variable_product():
    p = TruncatedPoly(("h", "y"), (3, 2), {(0, 0): 1, (1, 0): 1})
    q = TruncatedPoly(("h", "y"), (3, 2), {(0, 0): 1, (0, 1): 2})
    prod = (p**2) * q
    assert prod.coefficient((2, 0)) == 1
    assert prod.coefficient((1, 1)) == 4
    assert prod.coefficient((2, 1)) == 2
    assert prod.coefficient((0, 2)) == 0


def test_ring_mismatch_rejected():
    p = _poly({0: 1})
    q = TruncatedPoly(("z",), (8,), {(0,): 1})
    rings = "operands live in different truncated rings: Q[x]/(x^9) and Q[z]/(z^9)"
    with pytest.raises(InputError, match=re.escape(rings)):
        _ = p + q
    with pytest.raises(InputError, match=re.escape(rings)):
        _ = p * q
    two = TruncatedPoly(("x", "y"), (3, 2))
    with pytest.raises(InputError, match=re.escape("Q[x]/(x^9) and Q[x,y]/(x^4, y^3)") + "$"):
        _ = p - two


def test_add_sub_round_trip():
    a = _poly({0: 1, 2: Fraction(3, 7), 5: -2})
    b = _poly({1: 4, 2: Fraction(1, 7)})
    assert (a + b) - b == a
    assert a - a == TruncatedPoly.zero(("x",), (8,))
    assert (-a) + a == TruncatedPoly.zero(("x",), (8,))


def test_scalar_multiplication():
    a = _poly({0: 2, 3: Fraction(1, 2)})
    half = a * Fraction(1, 2)
    assert half.coefficient((0,)) == 1
    assert half.coefficient((3,)) == Fraction(1, 4)


def test_series_inverse():
    one = TruncatedPoly.constant(1, ("x",), (8,))
    for c0 in (1, -1, 3, Fraction(-5, 7), Fraction(999_983, 1_000_000)):
        p = _poly({0: c0, 1: 1, 2: Fraction(-3, 11)})
        inv = series_inverse(p)
        assert inv.constant_term == 1 / Fraction(c0)
        assert p * inv == one
        assert _reference_mul(p, inv) == one
    with pytest.raises(InputError, match="^series has no inverse: constant term is zero$"):
        series_inverse(_poly({1: 1}))


def test_exp_log_round_trip():
    p = _poly({1: Fraction(1, 3), 2: -2, 4: Fraction(7, 5)})
    assert series_log(series_exp(p)) == p
    q = _poly({0: 1, 1: 1})
    assert series_exp(series_log(q)) == q
    with pytest.raises(InputError, match="^series_exp needs a zero constant term, got -1/3$"):
        series_exp(_poly({0: Fraction(-1, 3), 1: 1}))
    with pytest.raises(InputError, match="^series_log needs constant term one, got 3/2$"):
        series_log(_poly({0: Fraction(3, 2)}))
    with pytest.raises(InputError, match="^series_log needs constant term one, got 0$"):
        series_log(_poly({1: 1}))
    with pytest.raises(InputError, match="^negative power -2: use series_inverse$"):
        _ = q**-2


def test_constructor_validation():
    with pytest.raises(InputError, match="^supported variable counts are 1 and 2$"):
        TruncatedPoly(("x", "y", "z"), (2, 2, 2), {})
    with pytest.raises(InputError, match="^one cutoff per variable required$"):
        TruncatedPoly(("x",), (2, 3), {})
    with pytest.raises(InputError, match="^cutoffs must be nonnegative$"):
        TruncatedPoly(("x",), (-1,), {})
    with pytest.raises(InputError, match=re.escape("bad exponent tuple (0, 0)")):
        TruncatedPoly(("x",), (2,), {(0, 0): 1})
    with pytest.raises(InputError, match=re.escape("bad exponent tuple (1,)")):
        TruncatedPoly(("x", "y"), (2, 2), {(1,): 1})
    with pytest.raises(InputError, match=re.escape("bad exponent tuple (-1,)")):
        TruncatedPoly(("x",), (2,), {(-1,): 1})
    with pytest.raises(InputError, match=re.escape("bad exponent tuple (1, -2)")):
        TruncatedPoly(("x", "y"), (2, 2), {(1, -2): 0})  # even with a zero coefficient
    # a non-int entry is named before the tuple's length or sign is looked at
    with pytest.raises(InputError, match=re.escape("exponent 0.5 is not an int")):
        TruncatedPoly(("x",), (2,), {(-1, 0.5): 1})
    # an exponent past its cutoff is dropped, not refused
    assert TruncatedPoly(("x", "y"), (2, 2), {(3, 0): 1, (0, 1): 2}).coeffs == {(0, 1): 2}


@pytest.mark.parametrize("bad", [2.7, 2.0, "2", Fraction(2), Fraction(5, 2), True])
def test_non_int_cutoffs_and_exponents_rejected(bad):
    with pytest.raises(InputError, match=re.escape(f"cutoff {bad!r} is not an int")):
        TruncatedPoly(("x",), (bad,), {})
    with pytest.raises(InputError, match=re.escape(f"exponent {bad!r} is not an int")):
        TruncatedPoly(("x",), (3,), {(bad,): 1})
    with pytest.raises(InputError, match=re.escape(f"exponent {bad!r} is not an int")):
        TruncatedPoly(("x", "y"), (3, 3), {(1, bad): 1})
    with pytest.raises(InputError, match=re.escape(f"power {bad!r} is not an int")):
        _poly({0: 1, 1: 1}) ** bad


def test_inexact_coefficients_rejected():
    with pytest.raises(InputError, match="not an exact rational"):
        TruncatedPoly(("x",), (2,), {(0,): 0.1})
    with pytest.raises(InputError):
        TruncatedPoly(("x",), (2,), {(5,): 0.5})  # even where truncated away
    with pytest.raises(InputError):
        _poly({0: 1}) * 0.5
    with pytest.raises(InputError, match="coefficient True is not an exact rational"):
        TruncatedPoly(("x",), (2,), {(1,): True})
    assert _poly({0: Fraction(1, 10)}) * 3 == _poly({0: Fraction(3, 10)})


# -- differential tests: the kernels against plain Fraction loops -------------
#
# The references below never call TruncatedPoly.__mul__: they multiply with
# _reference_mul and _scale, plain Fraction dict loops of their own.


def _reference_mul(p, q):
    out = {}
    for ea, ca in p.coeffs.items():
        for eb, cb in q.coeffs.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            if all(e <= c for e, c in zip(key, p.cutoffs)):
                out[key] = out.get(key, Fraction(0)) + ca * cb
    return TruncatedPoly(p.variables, p.cutoffs, out)


def _reference_pow(p, n):
    result = TruncatedPoly.constant(1, p.variables, p.cutoffs)
    for _ in range(n):
        result = _reference_mul(result, p)
    return result


def _scale(p, factor):
    return TruncatedPoly(p.variables, p.cutoffs, {k: v * factor for k, v in p.coeffs.items()})


def _reference_inverse(p):
    c0 = p.constant_term
    one = TruncatedPoly.constant(1, p.variables, p.cutoffs)
    r = one - _scale(p, 1 / c0)
    result = term = one
    while True:
        term = _reference_mul(term, r)
        if term.is_zero():
            break
        result = result + term
    return _scale(result, 1 / c0)


def _reference_exp(p):
    result = term = TruncatedPoly.constant(1, p.variables, p.cutoffs)
    k = 1
    while True:
        term = _scale(_reference_mul(term, p), Fraction(1, k))
        if term.is_zero():
            break
        result = result + term
        k += 1
    return result


def _reference_log(p):
    u = p - TruncatedPoly.constant(1, p.variables, p.cutoffs)
    result = TruncatedPoly.zero(p.variables, p.cutoffs)
    power = TruncatedPoly.constant(1, p.variables, p.cutoffs)
    k, sign = 1, 1
    while True:
        power = _reference_mul(power, u)
        if power.is_zero():
            break
        result = result + _scale(power, Fraction(sign, k))
        k, sign = k + 1, -sign
    return result


def _random_series(rng, cutoffs, constant):
    """Sparse random series; pure-second-variable terms included."""
    variables = ("x", "y")[: len(cutoffs)]
    coeffs = {(0,) * len(cutoffs): constant}
    for _ in range(rng.randint(1, 8)):
        exps = tuple(rng.randint(0, c) for c in cutoffs)
        if any(exps):
            coeffs[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if len(cutoffs) == 2 and cutoffs[1]:
        coeffs[(0, rng.randint(1, cutoffs[1]))] = Fraction(rng.randint(1, 5))
    return TruncatedPoly(variables, cutoffs, coeffs)


def _random_cutoffs(rng):
    if rng.random() < 0.4:
        return (rng.randint(0, 9),)
    return (rng.randint(0, 6), rng.randint(0, 6))


def _todd_like(rng, cutoff, constant):
    """Dense one-variable series whose degree-k coefficient has its own
    denominator, a multiple of (k+1)! as in the Todd and Ahat series."""
    coeffs = {(0,): constant}
    for k in range(1, cutoff + 1):
        den = rng.randint(1, 4) * math.factorial(k + 1)
        coeffs[(k,)] = Fraction(rng.choice([-1, 1]) * rng.randint(0, 9), den)
    return TruncatedPoly(("x",), (cutoff,), coeffs)


def _check_series_ops(unit, one_plus):
    one = TruncatedPoly.constant(1, unit.variables, unit.cutoffs)
    assert series_inverse(unit) == _reference_inverse(unit)
    assert unit * series_inverse(unit) == one
    assert series_log(one_plus) == _reference_log(one_plus)
    assert series_exp(series_log(one_plus)) == one_plus
    nilpotent = one_plus - one
    assert series_exp(nilpotent) == _reference_exp(nilpotent)
    assert series_log(series_exp(nilpotent)) == nilpotent


def test_series_ops_match_reference_loops():
    rng = random.Random(1804)
    for _ in range(60):
        cutoffs = _random_cutoffs(rng)
        c0 = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
        _check_series_ops(_random_series(rng, cutoffs, c0), _random_series(rng, cutoffs, 1))
    for cutoff in range(21):  # one variable: one coefficient per degree
        c0 = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
        _check_series_ops(_todd_like(rng, cutoff, c0), _todd_like(rng, cutoff, 1))



def _random_operand(rng, cutoffs, terms):
    """Random operand: negative coefficients, denominators up to 10**6."""
    coeffs = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, c) for c in cutoffs)
        coeffs[exps] = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))
    return TruncatedPoly(("x", "y")[: len(cutoffs)], cutoffs, coeffs)


def test_mul_and_pow_match_reference_product():
    rng = random.Random(1968)
    for _ in range(80):
        if rng.random() < 0.4:
            cutoffs = (rng.randint(0, 9),)
        else:  # unequal cutoffs in two variables
            cutoffs = (rng.randint(0, 6), rng.randint(0, 6))
            if cutoffs[0] == cutoffs[1]:
                cutoffs = (cutoffs[0], cutoffs[1] + 1)
        a = _random_operand(rng, cutoffs, rng.randint(0, 7))
        b = _random_operand(rng, cutoffs, rng.randint(0, 7))
        assert a * b == _reference_mul(a, b)
        assert a * (b - b) == TruncatedPoly.zero(a.variables, cutoffs)
        n = rng.randint(0, 4)
        assert a**n == _reference_pow(a, n)
    for cutoff in range(21):
        a = _todd_like(rng, cutoff, Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
        b = _random_operand(rng, (cutoff,), rng.randint(0, 7))
        assert a * b == _reference_mul(a, b)
        assert a * a == _reference_mul(a, a)
        assert a**3 == _reference_pow(a, 3)


def test_reduced_components():
    # one term: the sign moves to the numerator, zeros leave an empty component
    assert _reduced([(3, 4)], -6) == (3, [(3, -2)])
    assert _reduced([(3, -4)], -6) == (3, [(3, 2)])
    assert _reduced([(2, 5)], -1) == (1, [(2, -5)])
    assert _reduced([(2, 7)], 3) == (3, [(2, 7)])
    assert _reduced([(2, 0)], -6) == (1, [])
    # several terms share one gcd; zeros are dropped first
    assert _reduced([(0, 4), (1, 0), (2, -6)], -10) == (5, [(0, -2), (2, 3)])
    assert _reduced([], 7) == (1, [])


def test_products_that_cancel_to_zero():
    # (x + y)(x - y): x^2 and y^2 are truncated away and the xy terms cancel
    plus = TruncatedPoly(("x", "y"), (1, 1), {(1, 0): 1, (0, 1): 1})
    minus = TruncatedPoly(("x", "y"), (1, 1), {(1, 0): 1, (0, 1): -1})
    assert (plus * minus).is_zero()
    assert _reference_mul(plus, minus).is_zero()
    # (1 + x/3)(1 - x/3) = 1 - x^2/9: the x terms cancel, the rest survives
    p = _poly({0: 1, 1: Fraction(1, 3)})
    q = _poly({0: 1, 1: Fraction(-1, 3)})
    assert p * q == _poly({0: 1, 2: Fraction(-1, 9)})
    empty = TruncatedPoly.zero(("x",), (8,))
    assert (p * empty).is_zero() and (empty * p).is_zero() and (empty**3).is_zero()
    assert empty**0 == TruncatedPoly.constant(1, ("x",), (8,))


# -- property tests (hypothesis; skipped where it is not installed) ------------

_SETTINGS = {"max_examples": 60, "deadline": None, "derandomize": True, "database": None}


def _strategies():
    """hypothesis, a polynomial strategy and a rational strategy.

    Each property test calls this, so ``importorskip`` skips only the
    property tests, never the seeded loops above, when hypothesis is absent.
    ``polys(count, constant)`` draws ``count`` polynomials of one random
    ring (one variable, or two with independent cutoffs); ``constant``, a
    strategy, fixes the distribution of their constant terms.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rationals = st.fractions(min_value=-50, max_value=50, max_denominator=10**6)
    rings = st.one_of(
        st.tuples(st.integers(0, 8)),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
    )

    @st.composite
    def polys(draw, count, constant=None):
        cutoffs = draw(rings)
        exps = st.tuples(*(st.integers(0, c) for c in cutoffs))
        out = []
        for _ in range(count):
            coeffs = draw(st.dictionaries(exps, rationals, max_size=6))
            if constant is not None:
                coeffs[(0,) * len(cutoffs)] = draw(constant)
            out.append(TruncatedPoly(("x", "y")[: len(cutoffs)], cutoffs, coeffs))
        return out

    return hypothesis, polys, rationals


def test_property_series_inverse():
    hypothesis, polys, rationals = _strategies()

    @hypothesis.settings(**_SETTINGS)
    @hypothesis.given(polys(1, constant=rationals.filter(bool)))
    def prop(ps):
        (p,) = ps
        assert p * series_inverse(p) == TruncatedPoly.constant(1, p.variables, p.cutoffs)

    prop()


def test_property_exp_of_log():
    hypothesis, polys, _ = _strategies()

    @hypothesis.settings(**_SETTINGS)
    @hypothesis.given(polys(1, constant=hypothesis.strategies.just(1)))
    def prop(ps):
        (p,) = ps
        assert series_exp(series_log(p)) == p

    prop()


def test_property_mul_ring_laws():
    hypothesis, polys, _ = _strategies()

    @hypothesis.settings(**_SETTINGS)
    @hypothesis.given(polys(3))
    def prop(ps):
        a, b, c = ps
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * b == _reference_mul(a, b)

    prop()

