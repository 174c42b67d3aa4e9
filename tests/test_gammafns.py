"""Gamma backend tests.

Reference values were computed with mpmath at 40 decimal digits and are
frozen here as literals; the python stdlib (math.gamma / math.lgamma)
serves as a second, independent cross-check.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracimage.errors import DenominatorPoleError, PoleError
from fracimage.gammafns import (
    GAMMA_OVERFLOW_X,
    GammaProduct,
    SignedLogValue,
    binomial_real,
    gamma,
    gamma_product_eval,
    is_nonpositive_integer,
    log_gamma_signed,
    pochhammer,
    sin_pi,
)

# mpmath oracle, 40 dps, rounded to nearest double
GAMMA_ORACLE = {
    0.5: 1.7724538509055160,
    1.0: 1.0000000000000000,
    1.5: 0.88622692545275801,
    2.0: 1.0000000000000000,
    3.7: 4.1706517837966040,
    6.0: 120.00000000000000,
    10.25: 639232.59877957679,
    25.0: 6.2044840173323944e23,
    127.18: 5.6699403710904032e211,
    170.5: 5.5620924145599996e305,
    0.25: 3.6256099082219083,
    0.1: 9.5135076986687313,
    0.001: 999.42377248459545,
    -0.5: -3.5449077018110321,
    -1.5: 2.3632718012073547,
    -2.5: -0.94530872048294188,
    -3.3: 0.43851739219876309,
    -35.6: 3.7357315625973845e-41,
    -127.9919898956352: 3.3662006814786261e-214,
    -169.25: 2.8837604712815411e-305,
}

# (x, log|Gamma(x)|, sign), mpmath 40 dps
LOG_GAMMA_ORACLE = [
    (100.0, 359.13420536957540, 1),
    (500.0, 2605.1158503617339, 1),
    (1000.5, 5908.6741758486775, 1),
    (-500.25, -2611.3931193524474, -1),
]

# Measured worst-case relative error of gamma() against mpmath over
# [-170, 170] is ~1.7e-15 (about 8 ulps); 4e-15 leaves headroom.
GAMMA_RTOL = 4e-15


def test_gamma_against_frozen_oracle():
    for x, expected in GAMMA_ORACLE.items():
        got = gamma(x)
        assert got == pytest.approx(expected, rel=GAMMA_RTOL), x


def test_gamma_against_stdlib():
    # math.gamma is itself a few ulps, so allow the sum of both budgets
    xs = [0.5 + 0.37 * i for i in range(400)]
    xs += [-0.3 - 0.47 * i for i in range(60)]
    for x in xs:
        if x <= 0 and abs(x - round(x)) < 1e-9:
            continue
        assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-14), x


def test_gamma_integer_factorials():
    for n in range(1, 20):
        assert gamma(float(n)) == pytest.approx(
            float(math.factorial(n - 1)), rel=GAMMA_RTOL
        )


def test_gamma_poles_and_bad_input():
    for x in (0.0, -1.0, -2.0, -7.0, -120.0):
        with pytest.raises(PoleError):
            gamma(x)
    with pytest.raises(ValueError):
        gamma(float("nan"))
    with pytest.raises(ValueError):
        gamma(float("inf"))
    with pytest.raises(OverflowError):
        gamma(GAMMA_OVERFLOW_X + 1.0)


def test_gamma_near_pole_conditioning():
    # Reflection with exact-argument sin_pi keeps full relative accuracy
    # even 1e-8 away from a pole.
    x = -96.0 + 1e-8
    expected = math.gamma(x)
    assert gamma(x) == pytest.approx(expected, rel=1e-13)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2**19, max_value=84 * 2**20))
def test_gamma_recurrence(m):
    # dyadic x keeps x + 1.0 exact, so only evaluation error is compared
    x = m / 2**20
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=2e-14)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99))
def test_gamma_reflection_identity(x):
    lhs = gamma(x) * gamma(1.0 - x)
    assert lhs == pytest.approx(math.pi / sin_pi(x), rel=2e-14)


def test_sin_pi_frozen_values():
    assert sin_pi(0.25) == pytest.approx(0.70710678118654752, rel=1e-15)
    assert sin_pi(100000000.25) == pytest.approx(0.70710678118654752, rel=1e-15)
    assert sin_pi(-7.75) == pytest.approx(0.70710678118654752, rel=1e-15)
    assert sin_pi(12345678.5) == 1.0
    assert sin_pi(3.0) == 0.0
    assert sin_pi(-4.0) == 0.0
    assert sin_pi(0.5) == 1.0
    assert sin_pi(-0.5) == -1.0


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-50.0, max_value=50.0), st.integers(-30, 30))
def test_sin_pi_periodicity(x, k):
    shifted = sin_pi(x + 2.0 * k)
    assert shifted == pytest.approx(sin_pi(x), rel=1e-13, abs=1e-13)


def test_log_gamma_signed_frozen():
    for x, lg, sign in LOG_GAMMA_ORACLE:
        slv = log_gamma_signed(x)
        assert slv.sign == sign
        assert slv.log_magnitude == pytest.approx(lg, rel=0, abs=1e-10)


def test_log_gamma_signed_against_stdlib():
    for x in [0.1, 0.5, 3.7, 42.0, 171.0, 300.5, -0.5, -3.3, -35.6, -250.25]:
        slv = log_gamma_signed(x)
        assert slv.log_magnitude == pytest.approx(math.lgamma(x), rel=0, abs=1e-10)


def test_log_gamma_signed_sign_pattern():
    # sign(Gamma(x)) alternates between consecutive negative integers
    assert log_gamma_signed(-0.5).sign == -1
    assert log_gamma_signed(-1.5).sign == 1
    assert log_gamma_signed(-2.5).sign == -1
    assert log_gamma_signed(5.0).sign == 1
    with pytest.raises(PoleError):
        log_gamma_signed(-3.0)


def test_log_gamma_matches_gamma_in_range():
    for x in [0.3, 1.0, 2.5, 10.0, -0.7, -12.4]:
        assert log_gamma_signed(x).to_float() == pytest.approx(gamma(x), rel=1e-12)


def test_signed_log_value_roundtrip_and_algebra():
    a = SignedLogValue(math.log(3.5), -1)
    assert a.to_float() == pytest.approx(-3.5, rel=1e-15)
    b = SignedLogValue(math.log(2.0), 1)
    z = SignedLogValue(float("-inf"), 0)
    assert z.to_float() == 0.0
    assert z.times_power(4.0, 0.5) == z
    scaled = b.times_power(4.0, 0.5)
    assert scaled.to_float() == pytest.approx(4.0, rel=1e-15)
    with pytest.raises(ValueError):
        b.times_power(-1.0, 2.0)


def test_pochhammer_frozen():
    assert pochhammer(0.3, 7) == pytest.approx(425.0022777, rel=1e-14)
    assert pochhammer(-2.5, 4) == -0.9375
    assert pochhammer(5.0, 0) == 1.0
    assert pochhammer(-3.0, 4) == 0.0  # hits the zero factor
    with pytest.raises(ValueError):
        pochhammer(1.0, -1)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-10.0, max_value=10.0), st.integers(0, 12))
def test_pochhammer_recurrence_exact(a, k):
    # same left-to-right product, one more factor: bit-identical
    assert pochhammer(a, k + 1) == pochhammer(a, k) * (a + k)


def test_pochhammer_gamma_ratio():
    for a in (0.7, 2.3, 5.5):
        for k in (1, 3, 6):
            ratio = gamma(a + k) / gamma(a)
            assert pochhammer(a, k) == pytest.approx(ratio, rel=1e-12)


def test_binomial_real_frozen():
    assert binomial_real(0.5, 3) == 0.0625
    assert binomial_real(-1.5, 5) == -2.70703125
    assert binomial_real(7.0, 3) == 35.0
    assert binomial_real(3.0, 5) == 0.0
    assert binomial_real(4.2, 0) == 1.0
    with pytest.raises(ValueError):
        binomial_real(1.0, -2)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-8.0, max_value=8.0), st.integers(1, 10))
def test_binomial_pascal_rule(a, k):
    lhs = binomial_real(a, k)
    rhs = binomial_real(a - 1.0, k - 1) + binomial_real(a - 1.0, k)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_is_nonpositive_integer():
    assert is_nonpositive_integer(0.0)
    assert is_nonpositive_integer(-3.0)
    assert not is_nonpositive_integer(-3.0000001)
    assert not is_nonpositive_integer(2.0)
    assert not is_nonpositive_integer(0.5)


def test_gamma_product_cancellation():
    gp = GammaProduct((2.0, 2.1, 2.1), (2.1, 2.4))
    red = gp.cancelled()
    assert sorted(red.numerator_args) == [2.0, 2.1]
    assert red.denominator_args == (2.4,)


def test_gamma_product_same_factors_permutation():
    a = GammaProduct((1.5, 2.5, 0.7), (3.0,))
    b = GammaProduct((0.7, 1.5, 2.5), (3.0,))
    assert a.same_factors(b)
    c = GammaProduct((0.7, 1.5, 2.5), (3.5,))
    assert not a.same_factors(c)
    assert a.same_factors(c, rel_tol=0.5)
    d = GammaProduct((0.7, 1.5, 2.5), (3.0,), sign=-1)
    assert not a.same_factors(d)


def test_gamma_product_mul_merges():
    a = GammaProduct((1.5,), (2.5,), sign=-1, rational_scale=Fraction(1, 2))
    b = GammaProduct((2.5,), (4.0,), sign=-1, rational_scale=Fraction(3))
    prod = a * b
    assert prod.sign == 1
    assert prod.rational_scale == Fraction(3, 2)
    red = prod.cancelled()
    assert red.numerator_args == (1.5,)
    assert red.denominator_args == (4.0,)


def test_gamma_product_eval_frozen():
    # Gamma(2) Gamma(2.1)^2 / (Gamma(2.4) Gamma(2.3) Gamma(2.6))
    gp = GammaProduct((2.0, 2.1, 2.1), (2.4, 2.3, 2.6))
    value = gamma_product_eval(gp).to_float()
    assert value == pytest.approx(0.52856728751416667, rel=1e-13)


def test_gamma_product_eval_scale_and_sign():
    gp = GammaProduct((3.0,), (), sign=-1, rational_scale=Fraction(3, 4))
    assert gamma_product_eval(gp).to_float() == pytest.approx(-1.5, rel=1e-14)
    zero = GammaProduct((3.0,), (), rational_scale=Fraction(0))
    assert gamma_product_eval(zero).sign == 0


def test_gamma_product_eval_poles():
    with pytest.raises(PoleError) as exc:
        gamma_product_eval(GammaProduct((-2.0, 1.5), (3.0,)))
    assert exc.value.side == "numerator"
    with pytest.raises(DenominatorPoleError) as exc:
        gamma_product_eval(GammaProduct((1.5,), (0.0,)))
    assert exc.value.side == "denominator"
    # a pole cancelled by an identical factor on the other side is fine
    gp = GammaProduct((-2.0, 1.5), (-2.0,))
    assert gamma_product_eval(gp).to_float() == pytest.approx(
        gamma(1.5), rel=1e-14
    )


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=0.2, max_value=20.0),
    st.floats(min_value=0.2, max_value=20.0),
    st.floats(min_value=-30.0, max_value=30.0),
)
def test_gamma_product_append_pair_invariant(a, b, extra):
    # appending the same argument to both sides cannot change the value:
    # the pair is removed exactly before any evaluation
    base = GammaProduct((a,), (b,))
    padded = GammaProduct((a, extra), (b, extra))
    assert gamma_product_eval(base) == gamma_product_eval(padded)


def test_gamma_product_negative_gamma_signs_combine():
    # Gamma(-0.5) < 0, Gamma(-1.5) > 0
    gp = GammaProduct((-0.5,), (-1.5,))
    val = gamma_product_eval(gp)
    assert val.sign == -1
    assert val.to_float() == pytest.approx(
        math.gamma(-0.5) / math.gamma(-1.5), rel=1e-13
    )
