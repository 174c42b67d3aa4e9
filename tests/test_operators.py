"""Operator family tests: power-image structure, domain validation, and
the reduction chains between families.

Dyadic parameter grids make the affine gamma-argument arithmetic exact in
floating point, so reduction equalities can be asserted as exact multiset
matches; non-dyadic samples use a small matching tolerance instead.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracimage.errors import DenominatorPoleError, DomainError, PoleError
from fracimage.gammafns import GammaProduct
from fracimage.identities import (
    CORRECTIONS,
    IDENTITY_FAMILY,
    TAGS,
    IdentityId,
    deriv_composition_oracle,
    monomial_quadrature,
)
from fracimage.operators import (
    FAMILIES,
    Family,
    OperatorSpec,
    ek_left,
    ek_right,
    msm_left_deriv,
    msm_left_int,
    msm_right_deriv,
    msm_right_int,
    power_image,
    rl_left,
    rl_right,
    saigo_left,
    saigo_left_as_msm,
    saigo_right,
    saigo_right_as_msm,
    validate_domain,
)


def test_msm_left_int_worked_example():
    im = power_image(msm_left_int(0.5, 0.3, 0.2, 0.4, 1.1), 2.0)
    target = GammaProduct((2.0, 2.1, 2.1), (2.4, 2.3, 2.6))
    assert im.prefactor.same_factors(target, rel_tol=1e-12)
    # exponent tau - alpha - alpha_prime + gamma - 1
    assert im.exponent == pytest.approx(1.3, rel=1e-14)
    assert im.prefactor_value() == pytest.approx(0.52856728751416667, rel=1e-13)


def test_msm_all_zero_parameters_is_rl():
    a = power_image(msm_left_int(0.0, 0.0, 0.0, 0.0, 0.7), 1.5)
    b = power_image(rl_left(0.7), 1.5)
    assert a.prefactor.same_factors(b.prefactor)  # exact: params are clean
    assert a.exponent == b.exponent
    assert a.prefactor.cancelled().numerator_args == (1.5,)


def test_rl_left_integral_of_one():
    im = power_image(rl_left(1.0), 1.0)
    assert im.prefactor_value() == pytest.approx(1.0, rel=1e-14)
    assert im.exponent == 1.0
    assert im.value_at(2.0) == pytest.approx(2.0, rel=1e-14)


def test_saigo_left_worked_example():
    im = power_image(saigo_left(0.6, 0.2, 0.4), 1.5)
    target = GammaProduct((1.5, 1.7), (1.3, 2.5))
    assert im.prefactor.same_factors(target, rel_tol=1e-12)
    assert im.exponent == pytest.approx(0.3, rel=1e-13)
    assert im.prefactor_value() == pytest.approx(0.674962600705128, rel=1e-13)
    assert im.value_at(2.0) == pytest.approx(0.83097643507487379, rel=1e-13)


def test_image_matches_direct_gamma_product():
    # same arguments pushed through math.gamma directly
    cases = [
        (msm_right_int(0.5, 0.3, 0.2, 0.4, 1.1), 2.0),
        (msm_left_deriv(0.3, 0.4, 0.1, 0.2, 0.6), 3.0),
        (msm_right_deriv(0.3, 0.4, 0.1, 0.2, 0.6), 3.0),
        (ek_left(0.5, 0.75), 2.0),
        (ek_right(0.8, 0.5), 0.25),
        (rl_right(0.3), 0.5),
    ]
    for op, tau in cases:
        im = power_image(op, tau)
        direct = 1.0
        for a in im.prefactor.numerator_args:
            direct *= math.gamma(a)
        for b in im.prefactor.denominator_args:
            direct /= math.gamma(b)
        assert im.prefactor_value() == pytest.approx(direct, rel=1e-12), op


def test_dyadic_reductions_are_exact():
    # dyadic parameters: every affine gamma argument is computed exactly,
    # so the multisets must match bit for bit
    for alpha in (0.5, 1.25):
        for beta in (-0.25, 0.375):
            for eta in (0.75, 1.5):
                tau = 2.5
                s = power_image(saigo_left(alpha, beta, eta), tau)
                m = power_image(saigo_left_as_msm(alpha, beta, eta), tau)
                assert s.prefactor.same_factors(m.prefactor)
                assert s.exponent == m.exponent
                tau_r = 0.5
                sr = power_image(saigo_right(alpha, beta, eta), tau_r)
                mr = power_image(
                    saigo_right_as_msm(alpha, beta, eta), 1.0 - tau_r
                )
                assert sr.prefactor.same_factors(mr.prefactor)
                assert sr.exponent == mr.exponent


def test_generic_reductions_within_tolerance():
    s = power_image(saigo_left(0.6, 0.2, 0.4), 1.7)
    m = power_image(saigo_left_as_msm(0.6, 0.2, 0.4), 1.7)
    assert s.prefactor.same_factors(m.prefactor, rel_tol=1e-12)
    assert s.exponent == pytest.approx(m.exponent, rel=1e-12)
    assert s.value_at(3.0) == pytest.approx(m.value_at(3.0), rel=1e-12)


def test_saigo_specializations():
    # beta = -alpha collapses to Riemann-Liouville
    s = power_image(saigo_left(0.5, -0.5, 0.3), 2.0)
    r = power_image(rl_left(0.5), 2.0)
    assert s.prefactor.same_factors(r.prefactor)
    assert s.exponent == r.exponent
    # beta = 0 collapses to Erdelyi-Kober
    s = power_image(saigo_left(0.75, 0.0, 0.5), 2.0)
    e = power_image(ek_left(0.5, 0.75), 2.0)
    assert s.prefactor.same_factors(e.prefactor)
    assert s.exponent == e.exponent
    s = power_image(saigo_right(0.5, -0.5, 0.3), 0.25)
    r = power_image(rl_right(0.5), 0.25)
    assert s.prefactor.same_factors(r.prefactor, rel_tol=1e-13)
    assert s.exponent == r.exponent
    s = power_image(saigo_right(0.5, 0.0, 0.3), 0.25)
    e = power_image(ek_right(0.3, 0.5), 0.25)
    assert s.prefactor.same_factors(e.prefactor)
    assert s.exponent == e.exponent


def test_ek_exponent_is_power_neutral():
    # both EK images keep the input exponent: x^(tau-1) in, x^(tau-1) out
    assert power_image(ek_left(0.5, 0.75), 2.0).exponent == pytest.approx(1.0)
    assert power_image(ek_right(0.8, 0.5), 0.25).exponent == pytest.approx(-0.75)


def test_validate_domain_rl_pass():
    results = validate_domain(rl_left(0.5), 1.0)
    assert all(c.satisfied for c in results)


def test_validate_domain_saigo_right_fail_with_margin():
    results = validate_domain(saigo_right(0.5, 0.2, 0.3), 2.0)
    failed = [c for c in results if not c.satisfied]
    assert failed
    by_label = {c.label: c for c in results}
    assert by_label["tau < 1 + beta"].margin == pytest.approx(-0.8)


def test_validate_domain_msm_generic_pass():
    results = validate_domain(msm_left_int(0.5, 0.3, 0.2, 0.4, 1.1), 2.0)
    assert all(c.satisfied for c in results)


def test_validate_domain_msm_left_printed_variant_does_not_bind():
    # the printed tau > alpha - alpha_prime - beta - gamma is a ledger entry;
    # the conditions are the integral's order and the image's numerators
    results = validate_domain(msm_left_int(0.5, 0.3, 0.2, 0.4, 1.1), 2.0)
    assert [c.label for c in results] == [
        "gamma > 0", "tau > 0", "tau > alpha + alpha_prime + beta - gamma",
        "tau > alpha_prime - beta_prime",
    ]
    printed = {c.key: c.printed for c in CORRECTIONS}["thm1-condition"]
    assert "alpha - alpha_prime - beta - gamma" in printed


def test_validate_domain_msm_right_deriv_floor_condition():
    results = validate_domain(msm_right_deriv(0.3, 0.4, 0.1, 0.2, 0.6), 3.0)
    by_label = {c.label: c for c in results}
    key = "tau > alpha + alpha_prime - gamma + max(floor(gamma) + 1, 0)"
    # bound = 0.3 + 0.4 - 0.6 + 0 + 1 = 1.1, margin 1.9
    assert by_label[key].margin == pytest.approx(1.9)
    assert by_label[key].satisfied


def test_power_image_domain_error_names_conditions():
    with pytest.raises(DomainError) as exc:
        power_image(rl_left(0.5), -1.0)
    assert str(exc.value).endswith(" at tau=-1.0 violates: tau > 0")


@pytest.mark.parametrize("op, tau", [
    # refused by a printed MSM-left bound, tau > alpha - alpha_prime - beta -
    # gamma, and by tau > 0 and tau < 1 on the Erdelyi-Kober integrals; none
    # of the three is needed for the defining integral to exist
    (msm_left_int(3.0, -1.0, 0.0, 0.0, 0.5), 2.5),
    (ek_left(0.5, 0.75), -0.25),
    (ek_right(0.5, 0.75), 1.2),
])
def test_power_image_accepts_every_point_its_integral_exists_at(op, tau):
    quad = monomial_quadrature(op, None, tau, 1.0).value
    assert power_image(op, tau).value_at(1.0) == pytest.approx(quad, rel=1e-14)


def test_msm_left_deriv_conditions_are_its_inner_integrals():
    # the condition read beta where the image's numerator Gamma(tau + alpha +
    # alpha_prime + beta_prime - gamma) needs beta_prime: here that argument
    # is -0.2 and the image returned 0.8488..., where the inner integral of
    # the composition diverges
    with pytest.raises(DomainError, match="violates: tau > gamma - alpha - alpha_prime - beta_prime$"):
        power_image(msm_left_deriv(1.0, 0.1, 1.0, 0.0, 1.5), 0.2)
    # and it refused this point, where the composition exists
    op = msm_left_deriv(0.1, 0.1, 0.0, 1.0, 1.5)
    value = power_image(op, 0.8).value_at(1.0)
    assert value == pytest.approx(-0.24088183943455269, rel=1e-15)
    assert value == pytest.approx(deriv_composition_oracle(op, 0.8, 1.0), rel=1e-14)


def test_power_image_strict_inequality():
    with pytest.raises(DomainError):
        power_image(rl_left(0.5), 0.0)  # margin exactly zero fails


def test_power_image_pole_detection():
    with pytest.raises(PoleError) as exc:
        power_image(msm_left_int(0.5, -1.0, 0.3, -2.0, 0.4), 2.0)
    assert isinstance(exc.value, DenominatorPoleError)
    assert str(exc.value).endswith(" in the denominator")
    # the same pole argument cancelled away is fine
    im = power_image(msm_left_int(0.0, 0.0, 0.0, 0.0, 0.7), 2.0)
    assert im.prefactor_value() == pytest.approx(
        math.gamma(2.0) / math.gamma(2.7), rel=1e-13
    )


def test_power_image_validate_flag():
    with pytest.raises(DomainError):
        power_image(saigo_right(0.5, 0.2, 0.3), 2.5)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=0.2, max_value=4.0),
    st.floats(min_value=0.25, max_value=4.0),
)
def test_power_image_homogeneity(alpha, tau, scale):
    im = power_image(rl_left(alpha), tau)
    lhs = im.value_at(scale * 1.7)
    rhs = scale**im.exponent * im.value_at(1.7)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_operator_spec_arity_and_names():
    with pytest.raises(ValueError):
        OperatorSpec(Family.RL_LEFT, (0.5, 0.3))
    op = saigo_left(0.6, 0.2, 0.4)
    assert op.named_params() == {"alpha": 0.6, "beta": 0.2, "eta": 0.4}
    assert op.describe() == "saigo-left(alpha=0.6, beta=0.2, eta=0.4)"
    ek = ek_left(0.5, 0.75)
    assert ek.named_params() == {"eta": 0.5, "alpha": 0.75}


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_operator_spec_refuses_a_non_finite_parameter(family, bad):
    # a NaN order passed every validity inequality (no comparison with NaN
    # is true) and ended in a quadrature error about the integrand
    params = [0.5] * len(FAMILIES[family].params)
    params[-1] = bad
    with pytest.raises(DomainError, match=f"^{family.value} parameters must be finite"):
        OperatorSpec(family, params)


def test_monomial_convention_table():
    negative = {f for f, spec in FAMILIES.items() if spec.negative_power}
    assert negative == {Family.MSM_RIGHT_INT, Family.MSM_RIGHT_DERIV}
    right = {f for f, spec in FAMILIES.items() if spec.right}
    assert right == {
        Family.MSM_RIGHT_INT, Family.MSM_RIGHT_DERIV, Family.SAIGO_RIGHT,
        Family.RL_RIGHT, Family.EK_RIGHT,
    }
    assert FAMILIES[Family.MSM_RIGHT_INT].monomial_power(2.5) == -2.5
    assert FAMILIES[Family.RL_RIGHT].monomial_power(2.5) == 1.5
    assert FAMILIES[Family.MSM_LEFT_INT].monomial_power(2.5) == 1.5


def test_family_table_is_complete():
    assert set(FAMILIES) == set(Family)  # a dict: one spec per family
    for spec in FAMILIES.values():
        assert len(spec.params) == len(spec.symbols)
        if spec.quadrature is not None:
            assert spec.quadrature.order in spec.params
            assert set(spec.quadrature.single_series or ()) <= set(spec.params)
    no_quadrature = {f for f, spec in FAMILIES.items() if spec.quadrature is None}
    assert no_quadrature == {Family.MSM_LEFT_DERIV, Family.MSM_RIGHT_DERIV}
    # a derivative family is defined through an integral family instead
    composed = {f for f, spec in FAMILIES.items() if spec.composition is not None}
    assert composed == no_quadrature
    for f in composed:
        inner, _ = FAMILIES[f].composition
        assert FAMILIES[inner].quadrature is not None
        assert FAMILIES[inner].right == FAMILIES[f].right
    assert set(IDENTITY_FAMILY) == set(IdentityId)
    assert set(IDENTITY_FAMILY.values()) <= set(FAMILIES)
    lemmas = {tag: spec for tag, spec in TAGS.items() if spec.identity is None}
    assert set(lemmas) == {f"lem{i}" for i in range(1, 7)}
    assert {spec.family for spec in lemmas.values()} <= set(FAMILIES)
    assert {tag for tag, spec in TAGS.items() if spec.embedding} == {"lem3", "lem4"}
    for i in IdentityId:
        assert (TAGS[i.value].identity, TAGS[i.value].family) == (i, IDENTITY_FAMILY[i])


def test_family_cli_names():
    assert Family.MSM_LEFT_INT.value == "msm-left-int"
    assert Family("ek-right") is Family.EK_RIGHT
    assert len(Family) == 10
