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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracimage.errors import DenominatorPoleError, DivergenceError, NonConvergedError, PoleError
from fracimage import hypergeom
from fracimage.hypergeom import (
    ARRAY_BLOCK_TERMS,
    appell_f3,
    exact_series_sum,
    gauss_2f1,
    gauss_2f1_array,
    pfq,
)


def exact_terminating_pfq(num, den, z):
    """Independent oracle: exact rational sum of a terminating series.

    Parameters and argument must be Fractions (or exactly representable).
    Terms are added forward, each over the running product of the term
    ratios' denominators, so only the final Fraction takes a gcd of the
    long integers a series of a hundred terms and more builds up."""
    num = [Fraction(a) for a in num]
    den = [Fraction(b) for b in den]
    z = Fraction(z)
    stop = min(int(-a) for a in num if a <= 0 and a.denominator == 1)
    # total = total_num / common and term = term_num / common throughout
    total_num = term_num = common = 1
    for k in range(stop):
        ratio = z / (k + 1)
        for a in num:
            ratio *= a + k
        for b in den:
            ratio /= b + k
        term_num *= ratio.numerator
        total_num = total_num * ratio.denominator + term_num
        common *= ratio.denominator
    return Fraction(total_num, common)


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


# mpmath.hyp2f1 at 40 digits, exact double inputs; the direct series at the
# first two points alternates with terms thousands of times the sum and
# lost 4.4e-11 and 5.6e-10 of relative accuracy
NEGATIVE_ARGUMENT_2F1 = [
    ((1.5, 2.0, 0.7, -0.99), "-0.07199403864284811322628145"),
    ((2.5, 3.5, 1.2, -0.95), "-0.04717759217982659514924727"),
    ((0.5, 1.25, 2.5, -0.8), "0.8527976493125471653367147"),
]


@pytest.mark.parametrize("args, reference", NEGATIVE_ARGUMENT_2F1)
def test_2f1_negative_argument_references(args, reference):
    assert gauss_2f1(*args) == pytest.approx(float(reference), rel=1e-13)


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


def _exact_rational(kind: str, value: Fraction):
    return {"float": float, "int": int, "fraction": Fraction}[kind](value)


# parameter values as floats (exact binary rationals), ints or Fractions
_exact_params = st.one_of(
    st.floats(min_value=-12.0, max_value=12.0),
    st.integers(min_value=1, max_value=12),
    st.fractions(min_value=-12, max_value=12, max_denominator=40),
)


@settings(max_examples=300, deadline=None)
@given(
    stop=st.integers(min_value=0, max_value=160),
    stop_kind=st.sampled_from(["float", "int", "fraction"]),
    upper=st.lists(_exact_params, max_size=3),
    lower=st.lists(_exact_params, max_size=3),
    pole_at_stop=st.sampled_from([None, "float", "int", "fraction"]),
    z=st.one_of(
        st.floats(min_value=-3.0, max_value=3.0),
        st.just(0.0),
        st.just(-0.0),
        st.integers(min_value=-3, max_value=3),
        st.fractions(min_value=-3, max_value=3, max_denominator=50),
    ),
)
# 1 - 1 sums to +0.0, as float(Fraction(0)) does, also over a negative
# denominator; an exact Fraction argument is not flattened to a float
# (1 - 1/3 rounds to ...666, 1 - float(1/3) to ...667)
@example(stop=1, stop_kind="int", upper=[1], lower=[1], pole_at_stop=None, z=1)
@example(stop=1, stop_kind="float", upper=[1.0], lower=[], pole_at_stop="float", z=-1.0)
@example(stop=1, stop_kind="int", upper=[], lower=[], pole_at_stop=None, z=Fraction(1, 3))
# long series that cancel: summed in floats, 2F1(-65, -132.5; 2.5; -1)
# came out 1.1e34 for -8.4e25, and 2F1(-80, ...) 7.6e39 for -8.2e27
@example(stop=65, stop_kind="float", upper=[-132.5], lower=[2.5], pole_at_stop=None, z=-1.0)
@example(stop=80, stop_kind="float", upper=[-132.5], lower=[2.5], pole_at_stop=None, z=-1.0)
def test_pfq_exact_path_bit_equal_to_fraction_sum(stop, stop_kind, upper, lower, pole_at_stop, z):
    # the integer Horner sum must round to the very double float(Fraction)
    # gives for the term-by-term rational sum
    num = [_exact_rational(stop_kind, Fraction(-stop))] + upper
    den = [b for b in lower if not (Fraction(b) <= 0 and Fraction(b).denominator == 1)]
    if pole_at_stop is not None:
        # (b)_k first vanishes at k = stop + 1, one past the last term
        den.append(_exact_rational(pole_at_stop, Fraction(-stop)))
    try:
        expected = float(exact_terminating_pfq(num, den, z))
    except OverflowError:
        with pytest.raises(OverflowError):
            pfq(tuple(num), tuple(den), z)
        return
    assert repr(pfq(tuple(num), tuple(den), z)) == repr(expected)


def test_exact_series_sum_term_denominator_pole():
    # (-1)_k vanishes at k = 1, before the last term: a typed error, where the
    # sum divided by zero; an equal upper parameter cancels it exactly
    with pytest.raises(DenominatorPoleError, match="vanishes at k = 1"):
        exact_series_sum((1, 1, 1), (1.5,), (-1,), 0.5)
    assert exact_series_sum((1, 1, 1), (-1.0,), (Fraction(-1),), 0.5) == 1.75


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


def test_2f1_at_unity_diverges_unless_it_terminates():
    # no continuation: Gauss's sum at c - a - b > 0 is not taken either
    for a, b, c in ((1.5, 1.0, 1.9), (0.3, 0.2, 1.9)):
        with pytest.raises(DivergenceError):
            gauss_2f1(a, b, c, 1.0)


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


# mpmath.appellf3(..., maxterms=10**7) at 40 digits, exact double inputs;
# the first three points are where the diagonal-convolution summation
# returned 6.9e8, 3.0e13 and 2.6e8
F3_REFERENCES = [
    ((0.5, 0.5, 0.5, 0.5, 1.5, 0.99, 0.99), "2.00075978585848591851997741141"),
    ((0.5, 0.5, 0.5, 0.5, 1.5, 0.999, 0.5), "1.66797752082399036846661946486"),
    ((0.5, 0.5, 0.5, 0.5, 1.5, -0.99, 0.99), "1.33716482805154434392650537229"),
    ((0.5, 0.5, 0.5, 0.5, 1.5, 0.99, 0.0), "1.47803766237477476430867915631"),
    ((0.5, 0.5, 0.5, 0.5, 1.5, 0.9, 0.9), "1.66436093066695267659371454176"),
    ((2.5, 1.5, 3.0, 2.0, 0.7, -0.9, 0.8), "110.760922254534036784810216648"),
]


@pytest.mark.parametrize("args, reference", F3_REFERENCES)
def test_appell_f3_edge_references(args, reference):
    assert appell_f3(*args) == pytest.approx(float(reference), rel=1e-12)


def test_appell_f3_domain_errors():
    with pytest.raises(DivergenceError):
        appell_f3(0.5, 0.3, 0.2, 0.4, 1.1, 1.5, 0.25)
    with pytest.raises(DivergenceError):
        appell_f3(0.5, 0.3, 0.2, 0.4, 1.1, 0.25, -1.0)
    with pytest.raises(PoleError):
        appell_f3(0.5, 0.3, 0.2, 0.4, -2.0, 0.25, 0.25)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_non_finite_series_argument_is_refused_at_once(z):
    # pfq summed a million terms for about a second before it raised
    # NonConvergedError; appell_f3 with a terminating outer sum returned nan
    with pytest.raises(ValueError, match="argument must be finite"):
        pfq((0.5,), (1.5,), z)
    with pytest.raises(ValueError, match="argument must be finite"):
        appell_f3(-2.0, 0.3, 0.5, 0.4, 1.1, z, 0.25)
    with pytest.raises(ValueError, match="argument must be finite"):
        appell_f3(-2.0, 0.3, 0.5, 0.4, 1.1, 0.25, z)


def test_appell_f3_outer_budget_raises(monkeypatch):
    # the outer sum at w = 0.99 needs thousands of terms
    monkeypatch.setattr(hypergeom, "MAX_TERMS", 100)
    with pytest.raises(NonConvergedError):
        appell_f3(0.5, 0.5, 0.5, 0.5, 1.5, 0.99, 0.0)


def scalar_2f1(a, b, c, z):
    """The per-element reference for gauss_2f1_array."""
    return [gauss_2f1(a, b, c, zi) for zi in z.tolist()]


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


def test_2f1_array_near_one_crosses_blocks(monkeypatch):
    # at z = 0.999 the series needs tens of thousands of terms, so rows
    # finish in many different blocks
    z = numpy.array([0.2, -0.7, 0.95, 0.999, 0.9995, -0.999])
    got = gauss_2f1_array(0.3, 0.45, 1.2, z)
    assert got.tolist() == scalar_2f1(0.3, 0.45, 1.2, z)
    monkeypatch.setattr(hypergeom, "MAX_TERMS", 100 * ARRAY_BLOCK_TERMS)
    with pytest.raises(NonConvergedError):
        gauss_2f1(0.3, 0.45, 1.2, 0.999)


def test_2f1_array_scalar_fallbacks():
    # terminating parameters use the exact path at any argument
    z = numpy.array([-3.0, 0.25, 1.0, 2.5])
    assert gauss_2f1_array(-3.0, 1.5, 2.25, z).tolist() == scalar_2f1(-3.0, 1.5, 2.25, z)
    # z = 0 sits beside series elements
    z = numpy.array([0.0, 0.3, -0.0])
    got = gauss_2f1_array(0.5, 0.25, 2.0, z)
    assert got.tolist() == scalar_2f1(0.5, 0.25, 2.0, z)
    assert got[0] == 1.0 and got[2] == 1.0
    assert gauss_2f1_array(0.5, 0.25, 2.0, numpy.array([])).size == 0


def test_2f1_array_errors_match_scalar(monkeypatch):
    for bad in (1.5, -1.0, 1.0):
        z = numpy.array([0.1, bad])
        # z = 1 diverges, since the series does not terminate
        with pytest.raises(DivergenceError):
            gauss_2f1(0.5, 0.75, 1.0, bad)
        with pytest.raises(DivergenceError):
            gauss_2f1_array(0.5, 0.75, 1.0, z)
    with pytest.raises(PoleError):
        gauss_2f1_array(0.5, 0.75, -2.0, numpy.array([0.1, 0.2]))
    monkeypatch.setattr(hypergeom, "MAX_TERMS", 10)
    with pytest.raises(NonConvergedError):
        gauss_2f1(0.5, 0.75, 1.5, 0.9)
    with pytest.raises(NonConvergedError):
        gauss_2f1_array(0.5, 0.75, 1.5, numpy.array([0.01, 0.9]))
    monkeypatch.setattr(hypergeom, "MAX_TERMS", 0)
    with pytest.raises(NonConvergedError):
        gauss_2f1_array(0.5, 0.75, 1.5, numpy.array([0.01]))
