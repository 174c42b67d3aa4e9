"""Gamma backend tests.

The backend is the python stdlib (math.gamma / math.lgamma), so the
independent gate is the reference values computed with mpmath at 40
decimal digits and frozen here as literals.  The stdlib cross-checks only
show that the pole, sign and overflow handling around it leave its values
alone.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracimage.errors import DenominatorPoleError, PoleError
from fracimage.gammafns import (
    GammaProduct,
    SignedLogValue,
    gamma,
    gamma_product_eval,
    is_nonpositive_integer,
    log_gamma_signed,
    pochhammer,
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
    (-29.5, -71.80874129832, 1),
    (-23.9, -52.1459705867886, 1),
    (-17.3, -33.009665438329286, 1),
    (-9.99999999, 3.3162681116540105, 1),
    (-6.5, -6.389634350909333, -1),
    (-3.00000001, 16.628921268240607, 1),
    (-1.99999999, 17.727533578697734, 1),
    (-1.00000001, 18.42068074580199, 1),
    (-0.25, 1.589575312551186, -1),
    (-1e-300, 690.7755278982137, -1),
    (1e-300, 690.7755278982137, 1),
    (1e-08, 18.42068073818021, 1),
    (0.5, 0.5723649429247001, 1),
    (0.9999999, 5.772157468444193e-08, 1),
    (1.000000001, -5.772157118381039e-10, 1),
    (1.25, -0.09827183642181316, 1),
    (1.4616321449683622, -0.12148629053584961, 1),
    (1.9999999, -4.2278430309861296e-08, 1),
    (2.00000001, 4.227843357536779e-09, 1),
    (2.75, 0.47521466691493713, 1),
    (3.5, 1.2009736023470743, 1),
    (7.3, 7.147892523022248, 1),
    (12.5, 18.734347511936445, 1),
    (19.0, 36.39544520803305, 1),
    (27.75, 63.73011805151037, 1),
    (33.3, 82.60372358165495, 1),
    (41.0, 110.32063971475739, 1),
    (47.6, 135.26011226201248, 1),
    (55.55, 166.52189622753073, 1),
    (60.0, 184.53382886144948, 1),
]

# (x, Gamma(x), log|Gamma(x)|, sign) just below zero, mpmath 40 dps.  Here
# x + 1 rounds, so a reflection that reduces the argument through it
# loses digits (or divides by zero once x + 1 == 1).
NEAR_ZERO_ORACLE = [
    (-1e-08, -100000000.57721567, 18.42068074972452, -1),
    (-1e-12, -1000000000000.5773, 27.631021115929126, -1),
    (-1.2e-16, -8333333333333334.0, 36.659039931110776, -1),
    (-1e-17, -1e17, 39.14394658089878, -1),
    (-1e-300, -9.999999999999999e299, 690.7755278982137, -1),
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
        gamma(172.624)  # Gamma(x) exceeds double range past x ~ 171.624


def test_gamma_near_pole_conditioning():
    # 1e-8 away from a pole the value must keep full relative accuracy;
    # the frozen mpmath tables gate the points near the other poles.
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
    assert lhs == pytest.approx(math.pi / math.sin(math.pi * x), rel=2e-14)


def test_gamma_just_below_zero():
    for x, g, lg, sign in NEAR_ZERO_ORACLE:
        assert gamma(x) == pytest.approx(g, rel=GAMMA_RTOL), x
        slv = log_gamma_signed(x)
        assert slv.sign == sign, x
        assert slv.log_magnitude == pytest.approx(lg, rel=GAMMA_RTOL), x


def test_log_gamma_signed_frozen():
    for x, lg, sign in LOG_GAMMA_ORACLE:
        slv = log_gamma_signed(x)
        assert slv.sign == sign
        assert slv.log_magnitude == pytest.approx(lg, rel=0, abs=1e-10)


def test_log_gamma_signed_past_lgamma_range():
    # log|Gamma(x)| itself exceeds double range past x ~ 2.5e305
    assert log_gamma_signed(3e305) == SignedLogValue(math.inf, 1)


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


def test_gamma_product_eval_frozen():
    # Gamma(2) Gamma(2.1)^2 / (Gamma(2.4) Gamma(2.3) Gamma(2.6))
    gp = GammaProduct((2.0, 2.1, 2.1), (2.4, 2.3, 2.6))
    value = gamma_product_eval(gp).to_float()
    assert value == pytest.approx(0.52856728751416667, rel=1e-13)


def test_gamma_product_eval_scale_and_sign():
    gp = GammaProduct((3.0,), (), sign=-1)
    assert gamma_product_eval(gp).to_float() == pytest.approx(-2.0, rel=1e-14)


@pytest.mark.parametrize("sign", [2, 0, -3])
def test_gamma_product_refuses_a_sign_other_than_plus_or_minus_one(sign):
    # gamma_product_eval reads only the sign's direction, so sign 2 gave
    # Gamma(3) = 2 instead of 4, and sign 0 gave -2
    with pytest.raises(ValueError, match=f"sign must be \\+1 or -1, got {sign}"):
        GammaProduct((3.0,), (), sign)


def test_gamma_product_eval_poles():
    with pytest.raises(PoleError) as exc:
        gamma_product_eval(GammaProduct((-2.0, 1.5), (3.0,)))
    assert not isinstance(exc.value, DenominatorPoleError)
    assert str(exc.value) == "uncancelled gamma pole at -2.0 in the numerator"
    with pytest.raises(DenominatorPoleError) as exc:
        gamma_product_eval(GammaProduct((1.5,), (0.0,)))
    assert str(exc.value) == "uncancelled gamma pole at 0.0 in the denominator"
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
