"""Hypergeometric series tests.

Frozen reference values come from mpmath at 40 decimal digits (exact
binary-double inputs). The terminating-series oracle is recomputed here
with exact Fraction arithmetic, independent of the float evaluator.
"""

import math
import random
from fractions import Fraction

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracimage.errors import DivergenceError, NonConvergedError, PoleError
from fracimage.gammafns import GammaProduct, gamma_product_eval
from fracimage.hypergeom import (
    ARRAY_BLOCK_TERMS,
    appell_f3,
    gauss_2f1,
    gauss_2f1_array,
    pfq,
)


def exact_terminating_pfq(num, den, z):
    """Independent oracle: exact rational sum of a terminating series.

    Parameters and argument must be Fractions (or exactly representable)."""
    num = [Fraction(a) for a in num]
    den = [Fraction(b) for b in den]
    z = Fraction(z)
    stop = min(int(-a) for a in num if a <= 0 and a.denominator == 1)
    total = Fraction(0)
    term = Fraction(1)
    for k in range(stop + 1):
        total += term
        factor = Fraction(1)
        for a in num:
            factor *= a + k
        for b in den:
            factor /= b + k
        term *= factor * z / (k + 1)
    return total


def test_pfq_terminating_against_exact_rational():
    cases = [
        ((Fraction(-3), Fraction(5, 2)), (Fraction(6, 5),), Fraction(7, 10)),
        ((Fraction(-5), Fraction(1, 3), Fraction(9, 4)),
         (Fraction(11, 10), Fraction(13, 10)), Fraction(-3, 2)),
        ((Fraction(-1), Fraction(4)), (Fraction(1, 2),), Fraction(5)),
        ((Fraction(-6), Fraction(-2)), (Fraction(3, 4),), Fraction(2)),
    ]
    for num, den, z in cases:
        expected = float(exact_terminating_pfq(num, den, z))
        got = pfq(tuple(float(a) for a in num), tuple(float(b) for b in den), float(z))
        assert got == pytest.approx(expected, rel=1e-13)


def test_pfq_terminating_frozen():
    got = pfq((-4.0, 1.1, 0.3), (0.9, 2.2), 1.5)
    assert got == pytest.approx(0.56683640171824831, rel=1e-14)


def test_pfq_convergent_frozen():
    assert pfq((0.3, 0.7), (1.9,), 0.6) == pytest.approx(
        1.0894648007858961, rel=1e-13
    )
    assert pfq((0.3, 0.7), (1.9,), -0.95) == pytest.approx(
        0.92078926693267913, rel=1e-13
    )
    assert pfq((0.5,), (1.2, 2.3), -30.0) == pytest.approx(
        0.16612024089872712, rel=1e-12
    )
    assert pfq((0.2, 0.4, 0.9), (1.1, 1.3), 0.8) == pytest.approx(
        1.0600466164737998, rel=1e-13
    )
    assert pfq((), (1.5,), 2.7) == pytest.approx(4.0633837423215642, rel=1e-13)


def test_pfq_divergence_and_poles():
    with pytest.raises(DivergenceError):
        pfq((0.3, 0.7), (1.9,), 1.5)  # p = q+1 outside the disc
    with pytest.raises(DivergenceError):
        pfq((0.5, 0.5, 0.5), (1.2,), 0.1)  # p > q+1
    with pytest.raises(PoleError):
        pfq((0.5, 0.7), (-2.0,), 0.3)  # non-terminating, pole in denominator
    with pytest.raises(PoleError):
        # terminates at k=3 but (-2)_k vanishes from k=3 on: pole is reached
        pfq((-3.0, 1.0), (-2.0,), 0.3)
    # terminating strictly before the denominator pole is fine:
    assert pfq((-2.0, 1.0), (-3.0,), 1.0) == pytest.approx(
        float(exact_terminating_pfq((Fraction(-2), Fraction(1)), (Fraction(-3),), Fraction(1))),
        rel=1e-13,
    )


def test_pfq_trivial_values():
    assert pfq((0.7, 1.3), (2.1,), 0.0) == 1.0
    assert pfq((0.0, 5.0), (1.1,), 0.9) == 1.0  # zero numerator parameter


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-0.9, max_value=0.9),
)
def test_2f1_binomial_identity(a, z):
    # 2F1(a, b; b; z) = (1-z)^(-a)
    got = gauss_2f1(a, 0.7, 0.7, z)
    assert got == pytest.approx((1.0 - z) ** (-a), rel=1e-11)


def test_2f1_at_unity_gauss_summation():
    got = gauss_2f1(0.3, 0.2, 1.9, 1.0)
    assert got == pytest.approx(1.0510632522536206, rel=1e-13)
    gp = GammaProduct((1.9, 1.4), (1.6, 1.7))
    assert got == pytest.approx(gamma_product_eval(gp).to_float(), rel=1e-13)
    with pytest.raises(DivergenceError):
        gauss_2f1(1.5, 1.0, 1.9, 1.0)  # c - a - b < 0


def test_2f1_chu_vandermonde():
    # terminating at z = 1: 2F1(-n, b; c; 1) = (c-b)_n / (c)_n
    from fracimage.gammafns import pochhammer

    for n in (0, 1, 2, 5):
        for b, c in ((0.4, 1.3), (2.5, 0.9)):
            got = gauss_2f1(float(-n), b, c, 1.0)
            expected = pochhammer(c - b, n) / pochhammer(c, n)
            assert got == pytest.approx(expected, rel=1e-12), (n, b, c)


def test_appell_f3_frozen_brute_force():
    assert appell_f3(0.5, 0.3, 0.2, 0.4, 1.1, 0.25, 0.25) == pytest.approx(
        1.0567358388988653, rel=1e-13
    )
    assert appell_f3(0.5, 0.3, 0.2, 0.4, 1.1, -0.6, 0.35) == pytest.approx(
        1.0004308366160362, rel=1e-13
    )


def test_appell_f3_brute_force_in_test():
    # independent row-major double loop with incremental ratio updates
    a, a2, b, b2, c = 0.5, 0.3, 0.2, 0.4, 1.1
    w, z = 0.25, 0.25
    rows = []
    # term(m, n) = (a)_m(a2)_n(b)_m(b2)_n w^m z^n / ((c)_{m+n} m! n!)
    term_m0 = 1.0
    for m in range(200):
        t = term_m0
        row = []
        for n in range(200):
            row.append(t)
            t *= (a2 + n) * (b2 + n) * z / ((n + 1) * (c + m + n))
        rows.append(math.fsum(row))
        term_m0 *= (a + m) * (b + m) * w / ((m + 1) * (c + m))
    oracle = math.fsum(rows)
    assert appell_f3(a, a2, b, b2, c, w, z) == pytest.approx(oracle, rel=1e-12)


def test_appell_f3_trivial_and_collapse():
    assert appell_f3(0.7, 1.1, 0.4, 2.2, 1.3, 0.0, 0.0) == 1.0
    # a' = b' = 0 kills the z series entirely, any z allowed
    got = appell_f3(1.0, 0.0, 1.0, 0.0, 2.0, 0.5, 123.0)
    assert got == pytest.approx(1.3862943611198906, rel=1e-13)  # 2 ln 2
    # single zero parameter is enough
    got = appell_f3(1.0, 0.0, 1.0, 5.5, 2.0, 0.5, 123.0)
    assert got == pytest.approx(1.3862943611198906, rel=1e-13)
    # collapse matches gauss_2f1 on a grid
    for w in (-0.7, 0.3, 0.6):
        assert appell_f3(0.9, 0.0, 1.7, 3.1, 2.4, w, 42.0) == pytest.approx(
            gauss_2f1(0.9, 1.7, 2.4, w), rel=1e-12
        )


def test_appell_f3_terminating_side_allows_large_argument():
    # (a)_m terminates the w series at m = 2, so |w| > 1 is fine
    got = appell_f3(-2.0, 0.3, 0.5, 0.4, 1.1, 3.0, 0.25)
    # brute force: finite w sum, convergent z sum
    total = []
    for m in range(3):
        pm = 1.0
        for i in range(m):
            pm *= (-2.0 + i) * (0.5 + i) * 3.0 / (i + 1)
        for n in range(200):
            qn = 1.0
            for j in range(n):
                qn *= (0.3 + j) * (0.4 + j) * 0.25 / (j + 1)
            cp = 1.0
            for j in range(m + n):
                cp *= 1.1 + j
            total.append(pm * qn / cp)
    assert got == pytest.approx(math.fsum(total), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-0.6, max_value=0.6),
    st.floats(min_value=-0.6, max_value=0.6),
)
def test_appell_f3_swap_symmetry(w, z):
    lhs = appell_f3(0.5, 0.3, 0.2, 0.4, 1.1, w, z)
    rhs = appell_f3(0.3, 0.5, 0.4, 0.2, 1.1, z, w)
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_appell_f3_domain_errors():
    with pytest.raises(DivergenceError):
        appell_f3(0.5, 0.3, 0.2, 0.4, 1.1, 1.5, 0.25)
    with pytest.raises(DivergenceError):
        appell_f3(0.5, 0.3, 0.2, 0.4, 1.1, 0.25, -1.0)
    with pytest.raises(PoleError):
        appell_f3(0.5, 0.3, 0.2, 0.4, -2.0, 0.25, 0.25)


def scalar_2f1(a, b, c, z, **kwargs):
    """The per-element reference for gauss_2f1_array."""
    return [gauss_2f1(a, b, c, zi, **kwargs) for zi in z.tolist()]


def test_2f1_array_bit_equal_to_scalar_sweep():
    rng = random.Random(20261018)
    compared = 0
    for _ in range(150):
        a, b = rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0)
        c = rng.uniform(0.05, 8.0) * rng.choice((-1.0, 1.0))
        reach = rng.choice((0.5, 0.9, 0.99))
        z = numpy.array([rng.uniform(-reach, reach) for _ in range(32)])
        assert gauss_2f1_array(a, b, c, z).tolist() == scalar_2f1(a, b, c, z)
        compared += z.size
    assert compared == 4800


def test_2f1_array_near_one_crosses_blocks():
    # at z = 0.999 the series needs tens of thousands of terms, so rows
    # finish in many different blocks
    z = numpy.array([0.2, -0.7, 0.95, 0.999, 0.9995, -0.999])
    got = gauss_2f1_array(0.3, 0.45, 1.2, z)
    assert got.tolist() == scalar_2f1(0.3, 0.45, 1.2, z)
    with pytest.raises(NonConvergedError):
        gauss_2f1(0.3, 0.45, 1.2, 0.999, max_terms=100 * ARRAY_BLOCK_TERMS)


def test_2f1_array_scalar_fallbacks():
    # terminating parameters use the exact path at any argument
    z = numpy.array([-3.0, 0.25, 1.0, 2.5])
    assert gauss_2f1_array(-3.0, 1.5, 2.25, z).tolist() == scalar_2f1(-3.0, 1.5, 2.25, z)
    # z = 0 and the z = 1 Gauss value sit beside series elements
    z = numpy.array([0.0, 0.3, -0.0, 1.0])
    got = gauss_2f1_array(0.5, 0.25, 2.0, z)
    assert got.tolist() == scalar_2f1(0.5, 0.25, 2.0, z)
    assert got[0] == 1.0 and got[2] == 1.0
    assert gauss_2f1_array(0.5, 0.25, 2.0, numpy.array([])).size == 0


def test_2f1_array_errors_match_scalar():
    for bad in (1.5, -1.0, 1.0):
        z = numpy.array([0.1, bad])
        # z = 1 diverges here because c - a - b <= 0
        with pytest.raises(DivergenceError):
            gauss_2f1(0.5, 0.75, 1.0, bad)
        with pytest.raises(DivergenceError):
            gauss_2f1_array(0.5, 0.75, 1.0, z)
    with pytest.raises(PoleError):
        gauss_2f1_array(0.5, 0.75, -2.0, numpy.array([0.1, 0.2]))
    with pytest.raises(NonConvergedError):
        gauss_2f1(0.5, 0.75, 1.5, 0.9, max_terms=10)
    with pytest.raises(NonConvergedError):
        gauss_2f1_array(0.5, 0.75, 1.5, numpy.array([0.01, 0.9]), max_terms=10)
    with pytest.raises(NonConvergedError):
        gauss_2f1_array(0.5, 0.75, 1.5, numpy.array([0.01]), max_terms=0)
