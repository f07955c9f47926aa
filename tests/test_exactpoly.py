"""Truncated polynomial ring and series arithmetic."""

import random
from fractions import Fraction

import pytest

from rslab.errors import InputError
from rslab.exactpoly import (
    TruncatedPoly,
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
    with pytest.raises(InputError):
        _ = p + q
    with pytest.raises(InputError):
        _ = p * q


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
    p = _poly({0: 1, 1: 1, 2: 3})
    inv = series_inverse(p)
    assert p * inv == TruncatedPoly.constant(1, ("x",), (8,))
    with pytest.raises(InputError):
        series_inverse(_poly({1: 1}))


def test_exp_log_round_trip():
    p = _poly({1: Fraction(1, 3), 2: -2, 4: Fraction(7, 5)})
    assert series_log(series_exp(p)) == p
    q = _poly({0: 1, 1: 1})
    assert series_exp(series_log(q)) == q
    with pytest.raises(InputError):
        series_exp(_poly({0: 1}))
    with pytest.raises(InputError):
        series_log(_poly({0: 2}))


def test_constructor_validation():
    with pytest.raises(InputError):
        TruncatedPoly(("x", "y", "z"), (2, 2, 2), {})
    with pytest.raises(InputError):
        TruncatedPoly(("x",), (2, 3), {})
    with pytest.raises(InputError):
        TruncatedPoly(("x",), (-1,), {})
    with pytest.raises(InputError):
        TruncatedPoly(("x",), (2,), {(0, 0): 1})


def test_inexact_coefficients_rejected():
    with pytest.raises(InputError, match="not an exact rational"):
        TruncatedPoly(("x",), (2,), {(0,): 0.1})
    with pytest.raises(InputError):
        TruncatedPoly(("x",), (2,), {(5,): 0.5})  # even where truncated away
    with pytest.raises(InputError):
        _poly({0: 1}) * 0.5
    assert _poly({0: Fraction(1, 10)}) * 3 == _poly({0: Fraction(3, 10)})


# -- differential tests: the graded recurrences against the plain loops -------


def _reference_inverse(p):
    c0 = p.constant_term
    one = TruncatedPoly.constant(1, p.variables, p.cutoffs)
    r = one - p * (Fraction(1) / c0)
    result = term = one
    while True:
        term = term * r
        if term.is_zero():
            break
        result = result + term
    return result * (Fraction(1) / c0)


def _reference_exp(p):
    result = term = TruncatedPoly.constant(1, p.variables, p.cutoffs)
    k = 1
    while True:
        term = term * p * Fraction(1, k)
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
        power = power * u
        if power.is_zero():
            break
        result = result + power * Fraction(sign, k)
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


def test_series_ops_match_reference_loops():
    rng = random.Random(1804)
    for _ in range(60):
        cutoffs = _random_cutoffs(rng)
        one = TruncatedPoly.constant(1, ("x", "y")[: len(cutoffs)], cutoffs)
        c0 = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
        unit = _random_series(rng, cutoffs, c0)
        assert series_inverse(unit) == _reference_inverse(unit)
        assert unit * series_inverse(unit) == one
        one_plus = _random_series(rng, cutoffs, 1)
        assert series_log(one_plus) == _reference_log(one_plus)
        assert series_exp(series_log(one_plus)) == one_plus
        nilpotent = one_plus - one
        assert series_exp(nilpotent) == _reference_exp(nilpotent)
        assert series_log(series_exp(nilpotent)) == nilpotent

