"""Elementary symmetric functions from power sums, for tests.

``rslab.charclass`` reads Pontryagin classes straight off c(T) c(conj T)
and runs Newton's identities only from Chern classes to power sums; this
is the inverse direction, through ``series_exp``, so round trips and the
Pontryagin classes have a second route.
"""

from fractions import Fraction

from rslab.exactpoly import TruncatedPoly, series_exp


def elementary_from_power_sums(sums, count):
    """e_1 .. e_count from power sums: e(t) = exp(sum_k (-1)**(k-1) s_k t**k / k)."""
    log_e = {(k,): Fraction(s) * Fraction((-1) ** (k - 1), k)
             for k, s in enumerate(sums[:count], 1)}
    e = series_exp(TruncatedPoly(("t",), (count,), log_e))
    return tuple(e.coefficient((k,)) for k in range(1, count + 1))
