"""Closed-form images versus the exact finite-sum oracle."""

import dataclasses
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracimage import identities
from fracimage.errors import (
    ConfigError,
    DenominatorPoleError,
    DomainError,
    UnsupportedKernelError,
)
from fracimage.gammafns import gamma, gamma_product_eval
from fracimage.identities import (
    ALL_TAGS,
    CORRECTIONS,
    DEFAULT_GRIDS,
    IDENTITY_FAMILY,
    TAGS,
    IdentityId,
    SweepConfig,
    _expand_grid,
    _op_params,
    corrections_for,
    deriv_composition_oracle,
    image_rhs,
    lhs_oracle,
    monomial_quadrature,
    quadrature_value,
    rel_diff,
    run_verification,
)
from fracimage.jacobi import PolySpec, m_poly_coefficients
from fracimage.operators import (
    FAMILIES,
    Family,
    OperatorSpec,
    _defining_integral,
    msm_left_deriv,
    msm_left_int,
    msm_right_deriv,
    power_image,
    rl_left,
    saigo_left,
    validate_domain,
)
from fracimage.quadrature import operator_apply

MSM_SETS = [(0.5, 0.3, 0.2, 0.4, 1.1), (0.2, 0.1, 0.3, 0.5, 0.9)]

# identity, parameter sets, tau values, x values
GRID = [
    (IdentityId.THM1, MSM_SETS, [2.0, 3.5], [0.5, 1.0, 2.0]),
    (IdentityId.THM2, MSM_SETS, [2.0, 3.5], [1.0, 2.0, 4.0]),
    (IdentityId.THM3, MSM_SETS, [2.0, 3.5], [0.5, 1.0, 2.0]),
    (IdentityId.THM4, MSM_SETS, [2.0, 3.5], [1.0, 2.0, 4.0]),
    (IdentityId.COR1, [(0.6, 0.2, 0.4), (0.5, -0.25, 0.75)], [2.0, 3.5], [0.5, 1.0, 2.0]),
    (IdentityId.COR2, [(0.5,), (1.25,)], [2.0, 3.5], [0.5, 1.0, 2.0]),
    (IdentityId.COR3, [(0.5, 0.75), (1.25, 0.5)], [2.0, 3.5], [0.5, 1.0, 2.0]),
    (IdentityId.COR4, [(0.6, 0.2, 0.4), (0.5, 0.25, 0.75)], [0.5, 1.125], [1.0, 2.0, 4.0]),
    (IdentityId.COR5, [(0.3,), (0.5,)], [0.25, 0.4375], [1.0, 2.0, 4.0]),
    (IdentityId.COR6, [(0.8, 0.5), (1.5, 0.25)], [0.25, 0.5], [1.0, 2.0, 4.0]),
]


def test_thm1_degree_zero_is_bare_image():
    # with n = 0 the polynomial factor and the series are both exactly 1
    op = msm_left_int(0.5, 0.3, 0.2, 0.4, 1.1)
    for tau, x in [(2.0, 0.7), (3.5, 2.0)]:
        ev = image_rhs(IdentityId.THM1, op.params, PolySpec(0, 3, 0.0), tau, x)
        assert ev.series_value == 1.0
        assert ev.value == power_image(op, tau).value_at(x)


def test_cor1_degree_zero_value():
    ev = image_rhs(IdentityId.COR1, (0.6, 0.2, 0.4), PolySpec(0, 3, 0.0), 1.5, 2.0)
    want = gamma(1.5) * gamma(1.7) / (gamma(1.3) * gamma(2.5)) * 2.0**0.3
    assert ev.value == pytest.approx(want, rel=1e-14)
    assert ev.exponent == pytest.approx(0.3)


def test_thm1_degree_two_example():
    par = (0.5, 0.3, 0.2, 0.4, 1.1)
    poly = PolySpec(2, 9, 1.0)
    oracle = lhs_oracle(IdentityId.THM1, par, poly, 2.0, 0.7)
    assert oracle == pytest.approx(-1.010204261659946, rel=1e-12)
    closed = image_rhs(IdentityId.THM1, par, poly, 2.0, 0.7).value
    assert closed == pytest.approx(oracle, rel=1e-10)


def test_cor2_degree_one_expansion():
    # M_1^(5,0)(t) = 3t - 1, so the image is the sum of two power images
    poly = PolySpec(1, 5, 0.0)
    closed = image_rhs(IdentityId.COR2, (0.5,), poly, 1.0, 1.0).value
    want = -1.0 * gamma(1.0) / gamma(1.5) + 3.0 * gamma(2.0) / gamma(2.5)
    assert closed == pytest.approx(want, rel=1e-12)
    quad = quadrature_value(IdentityId.COR2, (0.5,), poly, 1.0, 1.0)
    assert quad.value == pytest.approx(closed, rel=1e-8)


@pytest.mark.parametrize("identity,param_sets,taus,xs", GRID)
def test_rhs_matches_oracle(identity, param_sets, taus, xs):
    for params in param_sets:
        for n in range(6):
            for q in (0.0, 1.5):
                poly = PolySpec(n, 2 * n + 3, q)
                for tau in taus:
                    for x in xs:
                        closed = image_rhs(identity, params, poly, tau, x)
                        oracle = lhs_oracle(identity, params, poly, tau, x)
                        assert closed.value == pytest.approx(oracle, rel=1e-10)


# frozen reference: the identities whose polynomial terms lower the
# order, and those whose operand is M_n(1/t), as first tabulated by tag
LOWERING_IDS = {IdentityId.COR4, IdentityId.COR5, IdentityId.COR6}
RECIPROCAL_IDS = {
    IdentityId.THM2, IdentityId.THM4, IdentityId.COR4, IdentityId.COR5,
    IdentityId.COR6,
}


def test_oracle_matches_independent_term_summation():
    # the same finite sum with every shifted image evaluated on its own,
    # with no shared gamma factor; cancellation caps agreement near 1e-8
    from fracimage.jacobi import m_poly_coefficients

    for identity in IdentityId:
        spec = FAMILIES[IDENTITY_FAMILY[identity]]
        assert spec.right == (identity in RECIPROCAL_IDS)
        lowering = spec.right and not spec.negative_power
        assert lowering == (identity in LOWERING_IDS)
    for identity, param_sets, taus, xs in GRID:
        op = OperatorSpec(IDENTITY_FAMILY[identity], param_sets[0])
        shift = -1 if identity in LOWERING_IDS else 1
        poly = PolySpec(5, 13, 1.5)
        for tau in taus:
            for x in xs:
                coeffs = m_poly_coefficients(poly)
                naive = math.fsum(
                    c * power_image(op, tau + shift * k).value_at(x)
                    for k, c in enumerate(coeffs)
                )
                exact = lhs_oracle(identity, param_sets[0], poly, tau, x)
                assert naive == pytest.approx(exact, rel=5e-8)


def _binomial_fraction(top: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= top - j
    return out / math.factorial(k)


def fraction_loop_oracle(identity, params, poly, tau, x) -> float:
    """lhs_oracle as a term-by-term Fraction loop: every coefficient from
    the binomial sum and every step reduced, rounded once at the end. The
    terms are the defining integral's; a derivative family differentiates
    each term t^s_k m times, (d/dx)^m left-sided and (-d/dx)^m right-sided,
    so each term carries its own exact falling factorial."""
    op = OperatorSpec(IDENTITY_FAMILY[identity], params)
    spec = FAMILIES[op.family]
    inner, inner_params, m = _defining_integral(op.family, op.params)
    base = power_image(OperatorSpec(inner, inner_params), tau)
    n, p, q = poly.n, Fraction(poly.p), Fraction(poly.q)
    coeffs = [
        (-1) ** (n + k) * math.factorial(n)
        * _binomial_fraction(p - n - 1, k) * _binomial_fraction(q + n, n - k)
        for k in range(n + 1)
    ]
    num = [Fraction(a) for a in base.prefactor.numerator_args]
    den = [Fraction(a) for a in base.prefactor.denominator_args]
    step = 1 / Fraction(x) if spec.right else Fraction(x)
    total, ratio, power = Fraction(0), Fraction(1), Fraction(1)
    for k, c in enumerate(coeffs):
        exponent = Fraction(base.exponent) + (-k if spec.right else k)
        derivative = Fraction(1)
        for j in range(m):
            derivative *= (exponent - j) * (-1 if spec.right else 1)
        total += c * ratio * power * derivative
        power *= step
        for a in num:
            ratio *= a + k
        for a in den:
            ratio /= a + k
    scale = gamma_product_eval(base.prefactor).times_power(x, base.exponent - m)
    return scale.to_float() * float(total)


def _oracle_points():
    """Every identity point of the default verify grid, then thm3/thm4 at
    n = 0..16 with p = 35.5, where the exact sums are longest."""
    grids = [(tag, DEFAULT_GRIDS[tag]) for tag in ALL_TAGS if TAGS[tag].identity]
    grids += [(tag, dict(DEFAULT_GRIDS[tag], n=list(range(17)), p=[35.5]))
              for tag in ("thm3", "thm4")]
    for tag, grid in grids:
        for point in _expand_grid(tag, grid):
            poly = PolySpec(int(point["n"]), float(point["p"]), float(point["q"]))
            yield (IdentityId(tag), _op_params(tag, point), poly,
                   float(point["tau"]), float(point["x"]))


def test_oracle_bit_equal_to_fraction_loop():
    count = 0
    for identity, params, poly, tau, x in _oracle_points():
        got = lhs_oracle(identity, params, poly, tau, x)
        assert repr(got) == repr(fraction_loop_oracle(identity, params, poly, tau, x))
        count += 1
    assert count == 672 + 2 * 17 * 12


def test_oracle_meets_closed_form_at_every_oracle_point():
    # thm3/thm4 reach the same value by another route, the inner integral's
    # row and the falling factorials, so their rounding differs; the largest
    # difference measured is 5.6e-14, at thm4, n = 9, p = 35.5
    worst = max(
        rel_diff(lhs_oracle(*point), image_rhs(*point).value)
        for point in _oracle_points()
    )
    assert worst <= 1e-13


def test_value_decomposition():
    # value must be prefactor * series * x^exponent
    for identity, param_sets, taus, xs in GRID:
        ev = image_rhs(identity, param_sets[0], PolySpec(3, 9, 1.5), taus[0], xs[-1])
        pv = gamma_product_eval(ev.prefactor).to_float()
        rebuilt = pv * ev.series_value * xs[-1] ** ev.exponent
        assert ev.value == pytest.approx(rebuilt, rel=1e-12)


def test_series_shapes():
    # polynomial factor contributes one gamma ratio, the family the rest:
    # 3 for the five-parameter families, 2 for saigo, 1 for rl and ek
    sizes = {
        IdentityId.THM1: 4, IdentityId.THM2: 4, IdentityId.THM3: 4,
        IdentityId.THM4: 4, IdentityId.COR1: 3, IdentityId.COR4: 3,
        IdentityId.COR2: 2, IdentityId.COR3: 2, IdentityId.COR5: 2,
        IdentityId.COR6: 2,
    }
    for identity, param_sets, taus, xs in GRID:
        ev = image_rhs(identity, param_sets[0], PolySpec(1, 5, 0.0), taus[0], xs[0])
        assert len(ev.prefactor.numerator_args) == sizes[identity]
        assert len(ev.prefactor.denominator_args) == sizes[identity]


def test_series_argument_convention():
    ev = image_rhs(IdentityId.COR1, (0.6, 0.2, 0.4), PolySpec(1, 5, 0.0), 2.0, 4.0)
    assert ev.argument == -4.0
    ev = image_rhs(IdentityId.COR5, (0.3,), PolySpec(1, 5, 0.0), 0.25, 4.0)
    assert ev.argument == -0.25


@pytest.mark.parametrize(
    "identity,params,tau,x",
    [
        (IdentityId.THM1, MSM_SETS[0], 2.0, 0.7),
        (IdentityId.THM3, MSM_SETS[0], 2.0, 0.7),
        (IdentityId.COR4, (0.6, 0.2, 0.4), 0.5, 2.0),
    ],
)
def test_as_printed_disagrees_with_oracle(identity, params, tau, x):
    poly = PolySpec(1, 5, 0.0)
    oracle = lhs_oracle(identity, params, poly, tau, x)
    good = image_rhs(identity, params, poly, tau, x).value
    bad = image_rhs(identity, params, poly, tau, x, as_printed=True).value
    assert good == pytest.approx(oracle, rel=1e-10)
    assert abs(bad - oracle) > 1e-3 * abs(oracle)


def test_as_printed_noop_elsewhere():
    for identity, params, tau, x in [
        (IdentityId.COR1, (0.6, 0.2, 0.4), 2.0, 0.7),
        (IdentityId.THM2, MSM_SETS[0], 2.0, 2.0),
        (IdentityId.COR5, (0.3,), 0.25, 2.0),
    ]:
        poly = PolySpec(2, 7, 1.0)
        a = image_rhs(identity, params, poly, tau, x).value
        b = image_rhs(identity, params, poly, tau, x, as_printed=True).value
        assert a == b


def test_cor4_printed_variant_is_pure_sign():
    poly = PolySpec(3, 9, 0.0)
    good = image_rhs(IdentityId.COR4, (0.6, 0.2, 0.4), poly, 0.5, 2.0).value
    bad = image_rhs(IdentityId.COR4, (0.6, 0.2, 0.4), poly, 0.5, 2.0, as_printed=True).value
    assert bad == -good
    poly = PolySpec(2, 7, 0.0)
    good = image_rhs(IdentityId.COR4, (0.6, 0.2, 0.4), poly, 0.5, 2.0).value
    bad = image_rhs(IdentityId.COR4, (0.6, 0.2, 0.4), poly, 0.5, 2.0, as_printed=True).value
    assert bad == good


def test_reduction_thm1_to_left_corollaries():
    # saigo-left embeds as (alpha+beta, 0, -eta, 0, alpha); rl and ek are
    # the beta = -alpha and beta = 0 slices
    poly = PolySpec(3, 9, 1.0)
    for alpha, beta, eta in [(0.6, 0.2, 0.4), (0.5, -0.25, 0.75)]:
        emb = (alpha + beta, 0.0, -eta, 0.0, alpha)
        for tau, x in [(2.0, 0.7), (3.5, 2.0)]:
            v1 = image_rhs(IdentityId.THM1, emb, poly, tau, x).value
            v2 = image_rhs(IdentityId.COR1, (alpha, beta, eta), poly, tau, x).value
            assert v1 == pytest.approx(v2, rel=1e-12)
    for alpha in (0.5, 1.25):
        for tau, x in [(2.0, 0.7), (3.5, 2.0)]:
            v1 = image_rhs(IdentityId.COR1, (alpha, -alpha, 0.9), poly, tau, x).value
            v2 = image_rhs(IdentityId.COR2, (alpha,), poly, tau, x).value
            assert v1 == pytest.approx(v2, rel=1e-12)
    for eta, alpha in [(0.5, 0.75), (1.25, 0.5)]:
        for tau, x in [(2.0, 0.7), (3.5, 2.0)]:
            v1 = image_rhs(IdentityId.COR1, (alpha, 0.0, eta), poly, tau, x).value
            v2 = image_rhs(IdentityId.COR3, (eta, alpha), poly, tau, x).value
            assert v1 == pytest.approx(v2, rel=1e-12)


def test_reduction_thm2_to_right_corollaries():
    # same embedding on the right; the monomial conventions differ, so
    # order tau in cor4 corresponds to order 1 - tau in thm2
    poly = PolySpec(3, 9, 1.0)
    for alpha, beta, eta in [(0.6, 0.2, 0.4), (0.5, 0.25, 0.75)]:
        emb = (alpha + beta, 0.0, -eta, 0.0, alpha)
        for tau, x in [(0.5, 2.0), (1.125, 4.0)]:
            v1 = image_rhs(IdentityId.THM2, emb, poly, 1.0 - tau, x).value
            v2 = image_rhs(IdentityId.COR4, (alpha, beta, eta), poly, tau, x).value
            assert v1 == pytest.approx(v2, rel=1e-12)
    for alpha in (0.3, 0.5):
        for tau, x in [(0.25, 2.0), (0.4375, 4.0)]:
            v1 = image_rhs(IdentityId.COR4, (alpha, -alpha, 0.9), poly, tau, x).value
            v2 = image_rhs(IdentityId.COR5, (alpha,), poly, tau, x).value
            assert v1 == pytest.approx(v2, rel=1e-12)
    for eta, alpha in [(0.8, 0.5), (1.5, 0.25)]:
        for tau, x in [(0.25, 2.0), (0.5, 4.0)]:
            v1 = image_rhs(IdentityId.COR4, (alpha, 0.0, eta), poly, tau, x).value
            v2 = image_rhs(IdentityId.COR6, (eta, alpha), poly, tau, x).value
            assert v1 == pytest.approx(v2, rel=1e-12)


def test_domain_error_from_both_routes():
    poly = PolySpec(1, 5, 0.0)
    with pytest.raises(DomainError):
        image_rhs(IdentityId.COR2, (0.5,), poly, -0.5, 1.0)
    with pytest.raises(DomainError):
        lhs_oracle(IdentityId.COR2, (0.5,), poly, -0.5, 1.0)
    # right-sided saigo needs tau < 1 + min(beta, eta)
    with pytest.raises(DomainError):
        image_rhs(IdentityId.COR4, (0.6, 0.2, 0.4), poly, 1.5, 2.0)
    with pytest.raises(DomainError):
        image_rhs(IdentityId.COR1, (0.6, 0.2, 0.4), poly, 2.0, 0.0)
    with pytest.raises(DomainError, match="need x > 0"):
        lhs_oracle(IdentityId.COR1, (0.6, 0.2, 0.4), poly, 2.0, 0.0)


@pytest.mark.parametrize("family", list(FAMILIES))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=5, max_size=5),
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=1, max_value=16),
)
def test_oracle_order_shift_widens_conditions_and_moves_arguments(family, params, tau, k):
    # lhs_oracle shifts the order by +k, or by -k for a right-sided family on
    # t^(tau-1). Every condition's margin only grows under that shift and
    # every gamma argument moves by +k, so the shifted images hold wherever
    # the base image does
    spec = FAMILIES[family]
    params = params[: len(spec.params)]
    shifted = tau + (-k if spec.right and not spec.negative_power else k)
    op = OperatorSpec(family, params)
    for base, moved in zip(validate_domain(op, tau), validate_domain(op, shifted)):
        assert moved.margin >= base.margin, base.label
    base, moved = spec.image(*params, tau), spec.image(*params, shifted)
    for side in (0, 1):
        assert len(moved[side]) == len(base[side])
        for arg, arg_moved in zip(base[side], moved[side]):
            assert arg_moved == pytest.approx(arg + k, rel=1e-13, abs=1e-13)


def test_poly_parameter_pole():
    # q = -1 makes the series weight Gamma(q+1) singular once n >= 1
    with pytest.raises(DenominatorPoleError):
        image_rhs(IdentityId.COR2, (0.5,), PolySpec(2, 7, -1.0), 2.0, 1.0)
    # for n = 0 the singular factor cancels exactly and the value is finite
    ev = image_rhs(IdentityId.COR2, (0.5,), PolySpec(0, 3, -1.0), 2.0, 1.0)
    assert math.isfinite(ev.value)


def test_operator_arity_checked():
    with pytest.raises(ValueError):
        image_rhs(IdentityId.COR2, (0.5, 0.3), PolySpec(1, 5, 0.0), 2.0, 1.0)


DERIV_SETS = [
    (0.0, 0.0, 0.0, 0.0, 0.6),
    (0.3, 0.4, 0.1, 0.2, 0.6),
    (0.5, 0.3, 0.2, 0.4, 1.1),
]


@pytest.mark.parametrize("params", DERIV_SETS)
@pytest.mark.parametrize("side", ["left", "right"])
def test_deriv_composition_matches_image(side, params):
    fam = msm_left_deriv if side == "left" else msm_right_deriv
    op = fam(*params)
    for tau in (3.0, 4.5):
        for x in (0.7, 1.5, 2.0):
            composed = deriv_composition_oracle(op, tau, x)
            direct = power_image(op, tau).value_at(x)
            assert composed == pytest.approx(direct, rel=1e-10)


def test_deriv_all_zero_parameters_collapse():
    # with every parameter zero except gamma the left derivative is the
    # classical fractional derivative of order gamma
    v = deriv_composition_oracle(msm_left_deriv(0, 0, 0, 0, 0.6), 3.0, 1.5)
    want = gamma(3.0) / gamma(2.4) * 1.5**1.4
    assert v == pytest.approx(want, rel=1e-13)


def test_deriv_composition_validation():
    # an integral family has no composition to compute
    with pytest.raises(ValueError, match="not a derivative family"):
        deriv_composition_oracle(msm_left_int(0, 0, 0, 0, 0.6), 3.0, 1.5)
    # at gamma = -0.2, m = max(floor(gamma) + 1, 0) = 0: the operator is its
    # inner integral, here the Riemann-Liouville integral of order 0.2
    op = msm_left_deriv(0, 0, 0, 0, -0.2)
    want = gamma(3.0) / gamma(3.2) * 1.5**2.2
    assert deriv_composition_oracle(op, 3.0, 1.5) == pytest.approx(want, rel=1e-14)
    assert power_image(op, 3.0).value_at(1.5) == pytest.approx(want, rel=1e-14)


def test_composition_zero_falling_factor():
    # the inner integral's image is x^1 here and m = 2, so the falling factor
    # at k = 0 is 1 * 0: the derivative row, whose denominator holds
    # Gamma(s - m + 1), refuses the point, but the composition has a value
    op = msm_left_deriv(0, 0, 0, 0.5, 1.5)
    with pytest.raises(DenominatorPoleError):
        power_image(op, 1.5)
    # the term k = 0 is c_0 d^2/dx^2 x^1 = 0 and the term k = 1 is c_1 2 times
    # the inner image at order 2.5, 7 Gamma(2.5)/Gamma(3) at x = 1 (M_1 has
    # coefficients [-1, 7]); the frozen value is mpmath's at 40 digits
    value = lhs_oracle(IdentityId.THM3, op.params, PolySpec(1, 9, 0.0), 1.5, 1.0)
    assert value == pytest.approx(9.305382717253959143, rel=1e-15)
    # without a polynomial only the vanishing term is left: d^2/dx^2 of x^1 is 0
    assert deriv_composition_oracle(op, 1.5, 1.0) == 0.0


@pytest.mark.parametrize("family, identity", [
    (Family.MSM_LEFT_DERIV, IdentityId.THM3), (Family.MSM_RIGHT_DERIV, IdentityId.THM4),
])
def test_composition_oracle_reads_no_derivative_row(monkeypatch, family, identity):
    # the oracle must stand apart from the closed form: a derivative family's
    # image row that cannot be read changes no oracle value
    params = (0.5, 0.3, 0.2, 0.4, 1.1)
    poly = PolySpec(3, 9, 1.5)
    want = [lhs_oracle(identity, params, poly, 2.0, 0.5),
            deriv_composition_oracle(OperatorSpec(family, params), 2.0, 0.5)]

    def unreadable(*args):
        raise AssertionError(f"{family.value} image row read")

    monkeypatch.setitem(FAMILIES, family, dataclasses.replace(FAMILIES[family],
                                                              image=unreadable))
    assert [lhs_oracle(identity, params, poly, 2.0, 0.5),
            deriv_composition_oracle(OperatorSpec(family, params), 2.0, 0.5)] == want


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("x", [0.0, -1.5])
def test_deriv_composition_needs_positive_x(side, x):
    # raised ValueError ("times_power: base must be positive"), unlike the
    # closed form and the finite-sum oracle
    fam = msm_left_deriv if side == "left" else msm_right_deriv
    with pytest.raises(DomainError, match="need x > 0"):
        deriv_composition_oracle(fam(0.3, 0.4, 0.1, 0.2, 0.6), 3.0, x)


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_every_evaluator_refuses_a_non_finite_x(x):
    # value_at returned nan or inf; the others raised OverflowError or a
    # ValueError from converting nan to a ratio
    poly = PolySpec(1, 9.0, 0.0)
    with pytest.raises(DomainError, match="need x > 0"):
        power_image(saigo_left(0.6, 0.2, 0.4), 2.0).value_at(x)
    with pytest.raises(DomainError, match="need x > 0"):
        image_rhs(IdentityId.COR2, (0.5,), poly, 2.0, x)
    with pytest.raises(DomainError, match="need x > 0"):
        lhs_oracle(IdentityId.COR2, (0.5,), poly, 2.0, x)
    with pytest.raises(DomainError, match="need x > 0"):
        deriv_composition_oracle(msm_left_deriv(0.3, 0.4, 0.1, 0.2, 0.6), 3.0, x)
    with pytest.raises(DomainError, match="needs x > 0"):
        operator_apply(rl_left(0.5), lambda t: t, x, power=1.0)


def test_quadrature_matches_closed_form():
    poly = PolySpec(2, 7, 0.5)
    cases = [
        (IdentityId.COR1, (0.6, 0.2, 0.4), 2.0, 0.7),
        (IdentityId.COR2, (0.5,), 2.0, 1.0),
        (IdentityId.COR3, (0.5, 0.75), 2.0, 2.0),
        (IdentityId.COR4, (0.6, 0.2, 0.4), 0.5, 2.0),
        (IdentityId.COR5, (0.3,), 0.25, 2.0),
        (IdentityId.COR6, (0.8, 0.5), 0.25, 2.0),
        (IdentityId.THM1, (0.5, 0.0, 0.2, 0.4, 1.1), 2.0, 0.7),
        (IdentityId.THM2, (0.0, 0.3, 0.2, 0.4, 1.1), 2.0, 2.0),
    ]
    for identity, params, tau, x in cases:
        closed = image_rhs(identity, params, poly, tau, x).value
        quad = quadrature_value(identity, params, poly, tau, x)
        assert quad.value == pytest.approx(closed, rel=1e-8)


def test_quadrature_unsupported_slices_return_none():
    poly = PolySpec(1, 5, 0.0)
    assert quadrature_value(IdentityId.THM3, MSM_SETS[0], poly, 2.0, 0.7) is None
    assert quadrature_value(IdentityId.THM4, MSM_SETS[0], poly, 2.0, 2.0) is None
    # both primed parameters nonzero: the left kernel has two series
    assert quadrature_value(IdentityId.THM1, MSM_SETS[0], poly, 2.0, 0.7) is None
    # both unprimed nonzero on the right
    assert quadrature_value(IdentityId.THM2, MSM_SETS[0], poly, 2.0, 2.0) is None


@pytest.mark.parametrize("identity, params, x, builds", [
    (IdentityId.THM3, MSM_SETS[0], 0.7, 0),
    (IdentityId.THM4, MSM_SETS[0], 2.0, 0),
    (IdentityId.THM1, MSM_SETS[0], 0.7, 0),  # two-series left kernel
    (IdentityId.THM2, MSM_SETS[0], 2.0, 0),  # two-series right kernel
    (IdentityId.THM1, (0.5, 0.0, 0.2, 0.4, 1.1), 0.7, 1),
])
def test_monomial_quadrature_builds_coefficients_only_once_accepted(
        monkeypatch, identity, params, x, builds):
    # M_n's coefficients were built before operator_apply refused the operator
    calls = []

    def counted(poly):
        calls.append(poly)
        return m_poly_coefficients(poly)

    monkeypatch.setattr(identities, "m_poly_coefficients", counted)
    op = OperatorSpec(IDENTITY_FAMILY[identity], params)
    poly = PolySpec(2, 9.0, 1.5)
    if builds:
        monomial_quadrature(op, poly, 2.0, x)
    else:
        with pytest.raises(UnsupportedKernelError):
            monomial_quadrature(op, poly, 2.0, x)
    assert len(calls) == builds


def test_corrections_registry():
    keys = [c.key for c in CORRECTIONS]
    assert len(keys) == len(set(keys))
    assert len(CORRECTIONS) >= 4
    # exactly the identities image_rhs(as_printed=True) changes
    evaluable = {c.identity for c in CORRECTIONS if c.evaluable}
    assert evaluable == {"thm1", "thm3", "cor4"}
    assert corrections_for(IdentityId.THM1)
    assert all(c.printed and c.implemented for c in CORRECTIONS)


@pytest.mark.parametrize("cfg, named", [
    # a NaN tolerance switched its comparison off, so lem3 passed every
    # record; a negative one failed every record
    (SweepConfig(["cor2", "lem3"], {}, tol_reduction=math.nan), "tol_reduction"),
    (SweepConfig(["cor2"], {}, tol_oracle=-1), "tol_oracle"),
    # an unknown tag ended in a bare KeyError
    (SweepConfig(["cor2", "nope"], {}), "unknown identities: 'nope'"),
    (SweepConfig(["cor2"], {"nope": {"x": [1]}}), "'nope'"),
    # the grid of a tag that is not selected was not checked at all
    (SweepConfig(["lem1"], {"cor2": {"alpha": [1]}}), "cor2.alpha"),
    (SweepConfig(["cor2"], {"cor2": {"x": [1], "beta": [2]}}), "cor2.beta"),
    # an empty selection ran 0 records
    (SweepConfig([], {}), "no identities selected"),
    # a tolerance or grid value that is not a number ended in a bare
    # TypeError, and True was taken for a tolerance of 1.0
    pytest.param(SweepConfig(["cor2"], {}, tol_oracle="1e-3"),
                 "tol_oracle must be an int or a float", id="string-tolerance"),
    pytest.param(SweepConfig(["cor2"], {}, tol_quadrature=None),
                 "tol_quadrature must be an int or a float", id="none-tolerance"),
    pytest.param(SweepConfig(["cor2"], {}, tol_oracle=True),
                 "tol_oracle must be an int or a float, got True", id="bool-tolerance"),
    pytest.param(SweepConfig(["cor2"], {"cor2": {"x": ["1"]}}),
                 "cor2.x: grid values must be ints or floats", id="string-grid-value"),
    pytest.param(SweepConfig(["cor2"], {"cor2": {"x": [True]}}),
                 "cor2.x: grid values must be ints or floats", id="bool-grid-value"),
    # n = 1.5 ran as n = 1 under a point that said 1.5, and n = -1 raised
    # ValueError from PolySpec partway through the run
    pytest.param(SweepConfig(["cor2"], {"cor2": {"n": [1.5]}}),
                 "cor2.n: a degree must be an integer >= 0, got 1.5", id="fractional-degree"),
    pytest.param(SweepConfig(["cor2"], {"cor2": {"n": [0, -1]}}),
                 "cor2.n: a degree must be an integer >= 0, got -1", id="negative-degree"),
    # a repeated tag or grid value ran its records twice
    pytest.param(SweepConfig(["cor2", "lem1", "cor2"], {}),
                 "repeated identities: 'cor2'", id="repeated-tag"),
    pytest.param(SweepConfig(["cor2"], {"cor2": {"x": [1, 1.0]}}),
                 "cor2.x: grid value 1.0 is repeated", id="repeated-grid-value"),
    pytest.param(SweepConfig(["cor2"], {"cor2": {"x": []}}),
                 "cor2: no grid values for x", id="empty-grid"),
    # math.isfinite raised a bare OverflowError on an int past the double range
    pytest.param(SweepConfig(["cor2"], {"cor2": {"x": [1, 10**400]}}),
                 "cor2.x: grid values must be finite", id="int-past-double-range"),
])
def test_run_verification_checks_its_configuration(cfg, named):
    with pytest.raises(ConfigError, match=re.escape(named)):
        run_verification(cfg)


def test_identity_family_covers_all_tags():
    assert set(IDENTITY_FAMILY) == set(IdentityId)
    assert len(set(IDENTITY_FAMILY.values())) == len(IdentityId)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=4),
    alpha=st.floats(min_value=0.1, max_value=2.0),
    tau=st.floats(min_value=0.5, max_value=3.0),
    x=st.floats(min_value=0.25, max_value=4.0),
)
def test_cor2_property(n, alpha, tau, x):
    poly = PolySpec(n, 2 * n + 3, 0.5)
    closed = image_rhs(IdentityId.COR2, (alpha,), poly, tau, x).value
    oracle = lhs_oracle(IdentityId.COR2, (alpha,), poly, tau, x)
    assert closed == pytest.approx(oracle, rel=1e-9, abs=1e-12)
