"""Hypergeometric series tests.

Frozen reference values come from mpmath at 40 decimal digits (exact
binary-double inputs). The terminating-series oracle is recomputed here
with exact Fraction arithmetic, independent of the float evaluator.
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracimage.errors import DenominatorPoleError, DivergenceError, NonConvergedError, PoleError
from fracimage import hypergeom
from fracimage.hypergeom import (
    appell_f3,
    exact_series_sum,
    gauss_2f1,
    pfq,
    pfq_at,
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


def _refused_at_once(error, match, call) -> None:
    start = time.perf_counter()
    with pytest.raises(error, match=match):
        call()
    assert time.perf_counter() - start < 0.1


F3_POINT = (0.5, 0.5, 0.5, 0.5, 1.5, 0.5, 0.5)
# a 2F1 whose stream at z = 0.999 runs to tens of thousands of terms, 5-15 ms:
# an argument refused only after fifty of them takes far longer than 0.1 s
SLOW_2F1 = ((0.3, 0.45), (1.2,))


def _after_slow_streams(z) -> list[tuple]:
    """Argument lists that hold z after fifty slow ones, also amid others."""
    return [(0.999,) * 50 + (z,), (0.0, -0.5, *(0.999,) * 50, z, 0.25)]


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_non_finite_series_argument_is_refused_at_once(z):
    # pfq summed a million terms for about a second before it raised
    # NonConvergedError; appell_f3 with a terminating outer sum returned nan.
    # A non-finite parameter spun the same way (8.4 s through appell_f3),
    # met a bare OverflowError in the pole scan at -inf, or gave F3 = 1 at c = inf
    refusals = [
        ("argument", lambda: pfq((0.5,), (1.5,), z)),
        ("argument", lambda: appell_f3(-2.0, 0.3, 0.5, 0.4, 1.1, z, 0.25)),
        ("argument", lambda: appell_f3(-2.0, 0.3, 0.5, 0.4, 1.1, 0.25, z)),
        ("parameters", lambda: pfq((z, 1.0), (1.5,), 0.5)),
        ("parameters", lambda: pfq((1.0, 1.0), (z,), 0.5)),
        *(("parameters", lambda i=i: appell_f3(*F3_POINT[:i], z, *F3_POINT[i + 1:]))
          for i in range(5)),
        # every argument of a list is checked before any series is summed
        *(("argument", lambda zs=zs: pfq_at(*SLOW_2F1, zs)) for zs in _after_slow_streams(z)),
        # a terminating series summed its first argument exactly, then met
        # OverflowError converting inf to a ratio
        ("argument", lambda: pfq_at((-2.0, 1.0), (1.0,), [0.5, z])),
    ]
    for what, call in refusals:
        _refused_at_once(ValueError, f"{what} must be finite", call)


def test_exact_arguments_past_the_double_range_sum_exactly():
    # only a float argument can be non-finite: an int or Fraction past the
    # double range is an exact rational, and math.isfinite raises on it
    assert pfq_at((-2.0, 1.0), (1.0,), [Fraction(10**100), 0.5]) == [1e200, 0.25]
    assert pfq((0.0, 1.0), (1.0,), Fraction(10**400)) == 1.0
    assert pfq((-1.0,), (), -10**400 // 10**100) == float(10**300 + 1)


@pytest.mark.parametrize("z", [1.0, -1.0, 1.5])
def test_divergent_argument_in_a_list_is_refused_at_once(z):
    for zs in _after_slow_streams(z):
        _refused_at_once(DivergenceError, r"requires \|z\| < 1", lambda: pfq_at(*SLOW_2F1, zs))


@pytest.mark.parametrize("call", [
    lambda: pfq((1.0,), (1.0,), 710.0),  # e^710
    lambda: pfq((), (1.0,), 1e300),
    lambda: gauss_2f1(300.5, 300.5, 0.5, 0.99),
    lambda: appell_f3(300.5, 0.5, 300.5, 0.5, 0.5, 0.99, 0.5),
], ids=["1F1", "0F1", "2F1", "F3"])
def test_overflowing_series_sum_is_refused_at_once(call):
    # each ran to its term budget (0.8-1.3 s, F3 10 s) before it raised
    # NonConvergedError, once the sum was inf or nan
    _refused_at_once(OverflowError, "overflows", call)


def test_appell_f3_outer_budget_raises(monkeypatch):
    # the outer sum at w = 0.99 needs thousands of terms
    monkeypatch.setattr(hypergeom, "MAX_TERMS", 100)
    with pytest.raises(NonConvergedError):
        appell_f3(0.5, 0.5, 0.5, 0.5, 1.5, 0.99, 0.0)


# the 16-node rule's points v/2, where kernel pieces sum their series
HALF_RULE_POINTS = [0.5 * math.sin(math.pi * (2 * j + 1) / 64) ** 2 for j in range(16)]


def test_2f1_term_budget_raises(monkeypatch):
    # the series at 0.999 needs tens of thousands of terms, at 0.9 more than
    # ten; a zero budget refuses even z = 0.01
    gauss_2f1(0.3, 0.45, 1.2, 0.999)
    monkeypatch.setattr(hypergeom, "MAX_TERMS", 6400)
    with pytest.raises(NonConvergedError):
        gauss_2f1(0.3, 0.45, 1.2, 0.999)
    monkeypatch.setattr(hypergeom, "MAX_TERMS", 10)
    with pytest.raises(NonConvergedError):
        gauss_2f1(0.5, 0.75, 1.5, 0.9)
    monkeypatch.setattr(hypergeom, "MAX_TERMS", 0)
    with pytest.raises(NonConvergedError):
        gauss_2f1(0.5, 0.75, 1.5, 0.01)
    # the budget bounds each argument's stream, not their sum: sixteen
    # arguments of at most 0.5 need about 50 terms each
    monkeypatch.setattr(hypergeom, "MAX_TERMS", 100)
    assert pfq_at((0.5, 0.75), (1.5,), HALF_RULE_POINTS) == [
        gauss_2f1(0.5, 0.75, 1.5, z) for z in HALF_RULE_POINTS]
    with pytest.raises(NonConvergedError):
        pfq_at((0.5, 0.75), (1.5,), [*HALF_RULE_POINTS, 0.9])
    monkeypatch.setattr(hypergeom, "MAX_TERMS", 0)
    with pytest.raises(NonConvergedError):
        pfq_at((0.5, 0.75), (1.5,), [0.0, 0.01])


# seeded float-series inputs and the doubles the float stream returned for
# them (tests/data/make_float_series.py). A direct value uses only + - * /,
# so it holds on any IEEE platform; a "libm" value went through Pfaff's
# (1 - z) ** -a, which is pinned on glibc 2.36 like tests/test_cli.py's pins
FLOAT_SERIES = json.loads(
    (Path(__file__).parent / "data" / "float_series.json").read_text())["cases"]


def _series_value(case: dict) -> float:
    if case["kind"] == "f3":
        return appell_f3(*map(float.fromhex, case["args"]))
    num = tuple(map(float.fromhex, case["num"]))
    den = tuple(map(float.fromhex, case["den"]))
    return pfq(num, den, float.fromhex(case["z"]))


@pytest.mark.parametrize("libm", [False, True], ids=["direct", "libm"])
def test_float_series_are_bit_identical_to_the_frozen_values(libm):
    # an operation changed inside pfq's or appell_f3's loop moves some of
    # these doubles; the quadrature tests compare the memo with the same pfq
    cases = [case for case in FLOAT_SERIES if case["libm"] == libm]
    assert len(cases) >= 70
    moved = [case for case in cases if _series_value(case).hex() != case["value"]]
    assert not moved, f"{len(moved)} of {len(cases)} moved, first {moved[0]}"


def test_pfq_at_is_bit_identical_to_scalar_pfq():
    # every stream shares each term's parameter factor with the others; each
    # value must still be the double pfq returns at that argument alone
    cases = [case for case in FLOAT_SERIES if case["kind"] != "f3"]
    assert len(cases) >= 200
    for case in cases:
        num = tuple(map(float.fromhex, case["num"]))
        den = tuple(map(float.fromhex, case["den"]))
        z = float.fromhex(case["z"])
        zs = [z, *HALF_RULE_POINTS, -0.37, 0.0]
        want = [pfq(num, den, x).hex() for x in zs]
        assert want[0] == case["value"]
        assert [x.hex() for x in pfq_at(num, den, zs)] == want, case
        assert [x.hex() for x in pfq_at(num, den, zs[::-1])] == want[::-1], case
