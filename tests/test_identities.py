"""Closed-form images versus the exact finite-sum oracle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracimage.errors import DenominatorPoleError, DomainError
from fracimage.gammafns import gamma, gamma_product_eval
from fracimage.identities import (
    AS_PRINTED_IDS,
    CORRECTIONS,
    IDENTITY_FAMILY,
    IdentityId,
    corrections_for,
    deriv_composition_oracle,
    image_rhs,
    lhs_oracle,
    quadrature_value,
)
from fracimage.jacobi import PolySpec
from fracimage.operators import (
    FAMILIES,
    msm_left_deriv,
    msm_left_int,
    msm_right_deriv,
    power_image,
)

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
    from fracimage.identities import _make_operator
    from fracimage.jacobi import m_poly_coefficients

    for identity in IdentityId:
        spec = FAMILIES[IDENTITY_FAMILY[identity]]
        assert spec.right == (identity in RECIPROCAL_IDS)
        lowering = spec.right and not spec.negative_power
        assert lowering == (identity in LOWERING_IDS)
    for identity, param_sets, taus, xs in GRID:
        op = _make_operator(identity, param_sets[0])
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
            composed = deriv_composition_oracle(side, params, tau, x)
            direct = power_image(op, tau).value_at(x)
            assert composed == pytest.approx(direct, rel=1e-10)


def test_deriv_all_zero_parameters_collapse():
    # with every parameter zero except gamma the left derivative is the
    # classical fractional derivative of order gamma
    v = deriv_composition_oracle("left", (0, 0, 0, 0, 0.6), 3.0, 1.5)
    want = gamma(3.0) / gamma(2.4) * 1.5**1.4
    assert v == pytest.approx(want, rel=1e-13)


def test_deriv_composition_validation():
    with pytest.raises(ValueError):
        deriv_composition_oracle("up", (0, 0, 0, 0, 0.6), 3.0, 1.5)
    with pytest.raises(DomainError):
        deriv_composition_oracle("left", (0, 0, 0, 0, -0.2), 3.0, 1.5)


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


def test_corrections_registry():
    keys = [c.key for c in CORRECTIONS]
    assert len(keys) == len(set(keys))
    assert len(CORRECTIONS) >= 4
    evaluable = {c.identity for c in CORRECTIONS if c.evaluable}
    assert evaluable == {i.value for i in AS_PRINTED_IDS}
    assert corrections_for(IdentityId.THM1)
    assert all(c.printed and c.implemented for c in CORRECTIONS)


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
