"""Quadrature oracle tests.

The closed-form power images provide exact reference values, so the
Gauss-Jacobi machinery is checked end to end: weight handling, the t = x*u
and t = x/u substitutions, and the split evaluation of 2F1 kernels.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracimage.errors import DomainError, NonConvergedError, UnsupportedKernelError
from fracimage.gammafns import is_nonpositive_integer
from fracimage.hypergeom import gauss_2f1
from fracimage.operators import (
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
    saigo_right,
)
from fracimage.quadrature import (
    QuadConfig,
    QuadResult,
    _connection_coefficient,
    _gj_rule,
    _kernel_piece,
    _kernel_quad,
    operator_apply,
    quad_endpoint_singular,
)


def test_unit_weight():
    res = quad_endpoint_singular(lambda u: 1.0, 0.0, 0.0)
    assert math.isclose(res.value, 1.0, rel_tol=1e-13)


def test_inverse_sqrt_weight():
    res = quad_endpoint_singular(lambda u: 1.0, -0.5, 0.0)
    assert math.isclose(res.value, 2.0, rel_tol=1e-13)


def test_arcsine_weight():
    res = quad_endpoint_singular(lambda u: 1.0, -0.5, -0.5)
    assert math.isclose(res.value, math.pi, rel_tol=1e-13)


def test_smooth_integrand():
    res = quad_endpoint_singular(math.exp, 0.0, 0.0)
    assert math.isclose(res.value, math.e - 1.0, rel_tol=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(min_value=-0.9, max_value=2.0),
    b=st.floats(min_value=-0.9, max_value=2.0),
)
def test_weight_mass_is_beta_function(a, b):
    # the rule integrates its own weight exactly
    res = quad_endpoint_singular(lambda u: 1.0, a, b)
    want = math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(a + b + 2.0)
    assert math.isclose(res.value, want, rel_tol=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(node_count=4)
    with pytest.raises(ValueError):
        QuadConfig(tol=0.0)
    with pytest.raises(ValueError):
        QuadConfig(max_refinements=-1)


def test_nonintegrable_weight_rejected():
    with pytest.raises(DomainError):
        quad_endpoint_singular(lambda u: 1.0, -1.0, 0.0)
    with pytest.raises(DomainError):
        quad_endpoint_singular(lambda u: 1.0, 0.0, -1.5)


def test_nonconverged_oscillatory():
    cfg = QuadConfig(node_count=8, tol=1e-15, max_refinements=1)
    with pytest.raises(NonConvergedError):
        quad_endpoint_singular(lambda u: math.cos(57.0 * u), 0.0, 0.0, cfg)


def test_no_refinement_budget_always_raises():
    # convergence needs two estimates to compare
    cfg = QuadConfig(node_count=8, tol=1e-3, max_refinements=0)
    with pytest.raises(NonConvergedError):
        quad_endpoint_singular(lambda u: 1.0, 0.0, 0.0, cfg)


def test_rl_left_order_one_is_plain_integral():
    res = operator_apply(rl_left(1.0), lambda t: 1.0, 2.0)
    assert math.isclose(res.value, 2.0, rel_tol=1e-12)


def test_rl_left_half_order_constant():
    # RL(1/2) of 1 at x=1 is 2/sqrt(pi)
    res = operator_apply(rl_left(0.5), lambda t: 1.0, 1.0)
    assert math.isclose(res.value, 1.1283791670955126, rel_tol=1e-12)


@pytest.mark.parametrize(
    "order, x, expected, rtol",
    [
        # x^(order+1) / Gamma(order+2), mpmath 40 dps.  Past order ~171.6
        # Gamma(order) overflows and the factor is taken in log space;
        # below it the direct factor keeps full accuracy (log space would
        # be off by 4.6e-14 at order 150).
        (200.0, 100.0, 6.308343052144091e24, 1e-12),
        (150.0, 3.0, 1.2865868387952016e-193, 4e-15),
    ],
)
def test_rl_left_large_order(order, x, expected, rtol):
    res = operator_apply(rl_left(order), lambda t: t, x, power_at_zero=1.0)
    assert math.isclose(res.value, expected, rel_tol=rtol)


def test_saigo_example_without_power_hint():
    op = saigo_left(0.6, 0.2, 0.4)
    want = power_image(op, 1.5).value_at(1.0)
    res = operator_apply(op, lambda t: t**0.5, 1.0)
    assert math.isclose(res.value, want, rel_tol=1e-6)


def test_power_hint_gives_exact_weight():
    op = saigo_left(0.6, 0.2, 0.4)
    want = power_image(op, 1.5).value_at(1.0)
    res = operator_apply(op, lambda t: t**0.5, 1.0, power_at_zero=0.5)
    assert math.isclose(res.value, want, rel_tol=1e-12)
    # the hinted integrand is smooth, so the first comparison already agrees
    assert res.nodes == 128


LEFT_CASES = [
    (rl_left(0.3), 1.0, 0.5),
    (rl_left(0.3), 2.5, 2.0),
    (rl_left(1.2), 1.5, 1.0),
    (ek_left(0.5, 0.75), 1.0, 1.5),
    (ek_left(0.5, 0.75), 2.0, 1.5),
    (ek_left(1.25, 0.5), 3.5, 0.5),
    (saigo_left(0.6, 0.2, 0.4), 1.5, 1.0),
    (saigo_left(0.6, 0.2, 0.4), 2.0, 2.0),
    (saigo_left(0.4, -0.3, 0.9), 1.5, 2.0),
    (msm_left_int(0.5, 0.0, 0.2, 0.4, 1.1), 2.0, 0.5),
    (msm_left_int(0.5, 0.0, 0.2, 0.4, 1.1), 2.0, 2.0),
    (msm_left_int(0.5, 0.3, 0.2, 0.0, 1.1), 2.0, 2.0),
    (msm_left_int(0.2, 0.0, 0.3, 0.5, 0.9), 3.5, 1.0),
]


@pytest.mark.parametrize("op,tau,x", LEFT_CASES)
def test_left_quadrature_matches_image(op, tau, x):
    want = power_image(op, tau).value_at(x)
    res = operator_apply(op, lambda t: t ** (tau - 1.0), x, power_at_zero=tau - 1.0)
    assert math.isclose(res.value, want, rel_tol=1e-10)


RIGHT_CASES = [
    (rl_right(0.5), 0.25, 2.0),
    (rl_right(0.3), 0.5, 1.0),
    (ek_right(1.25, 0.5), 0.5, 1.0),
    (ek_right(0.5, 0.75), 0.25, 2.0),
    (saigo_right(0.7, 0.2, 1.4), 0.5, 2.0),
    (saigo_right(0.4, -0.3, 0.6), 0.5, 1.0),
    (saigo_right(1.2, 0.0, 0.9), 0.5, 4.0),
]


@pytest.mark.parametrize("op,tau,x", RIGHT_CASES)
def test_right_quadrature_matches_image(op, tau, x):
    # right-sided families act on t^(tau-1) decaying at infinity
    want = power_image(op, tau).value_at(x)
    res = operator_apply(op, lambda t: t ** (tau - 1.0), x, power_at_inf=tau - 1.0)
    assert math.isclose(res.value, want, rel_tol=1e-10)


MSM_RIGHT_CASES = [
    (msm_right_int(0.0, 0.1, 0.3, 0.5, 0.9), 2.0, 2.0),
    (msm_right_int(0.2, 0.1, 0.0, 0.5, 0.9), 2.0, 2.0),
    (msm_right_int(0.0, 0.3, 0.4, 0.1, 0.6), 3.0, 1.0),
    (msm_right_int(0.5, 0.3, 0.0, 0.4, 1.1), 2.5, 4.0),
]


@pytest.mark.parametrize("op,tau,x", MSM_RIGHT_CASES)
def test_msm_right_quadrature_matches_image(op, tau, x):
    # this family acts on t^(-tau)
    want = power_image(op, tau).value_at(x)
    res = operator_apply(op, lambda t: t**-tau, x, power_at_inf=-tau)
    assert math.isclose(res.value, want, rel_tol=1e-10)


def test_polynomial_kernel_path():
    # eta = 1 makes the kernel a degree-1 polynomial, no split needed
    op = saigo_left(0.6, 0.2, 1.0)
    want = power_image(op, 1.5).value_at(2.0)
    res = operator_apply(op, lambda t: t**0.5, 2.0, power_at_zero=0.5)
    assert math.isclose(res.value, want, rel_tol=1e-11)


def test_integer_exponent_difference_fallback():
    # eta - beta = 1 defeats the pure-power split; single rule still converges
    op = saigo_left(0.6, 0.2, 1.2)
    want = power_image(op, 1.5).value_at(2.0)
    res = operator_apply(op, lambda t: t**0.5, 2.0, power_at_zero=0.5)
    assert math.isclose(res.value, want, rel_tol=1e-9)


def test_linearity():
    op = saigo_left(0.6, 0.2, 0.4)
    x = 1.5

    def f(t):
        return t**0.3

    def h(t):
        return t**1.2

    def combo(t):
        return 2.5 * f(t) - 1.75 * h(t)

    lhs = operator_apply(op, combo, x, power_at_zero=0.3).value
    rhs = 2.5 * operator_apply(op, f, x, power_at_zero=0.3).value
    rhs -= 1.75 * operator_apply(op, h, x, power_at_zero=0.3).value
    assert math.isclose(lhs, rhs, rel_tol=1e-9)


def test_left_scaling_invariance():
    # the substitution t = x*u leaves only the analytic power of x
    op = msm_left_int(0.5, 0.0, 0.2, 0.4, 1.1)
    img = power_image(op, 2.0)
    v1 = operator_apply(op, lambda t: t, 0.5, power_at_zero=1.0).value
    v2 = operator_apply(op, lambda t: t, 2.0, power_at_zero=1.0).value
    assert math.isclose(v2 / v1, 4.0**img.exponent, rel_tol=1e-11)


def test_right_scaling_invariance():
    op = saigo_right(0.7, 0.2, 1.4)
    img = power_image(op, 0.5)
    v1 = operator_apply(op, lambda t: t**-0.5, 2.0, power_at_inf=-0.5).value
    v2 = operator_apply(op, lambda t: t**-0.5, 4.0, power_at_inf=-0.5).value
    assert math.isclose(v2 / v1, 2.0**img.exponent, rel_tol=1e-11)


def test_unsupported_kernels():
    f = lambda t: 1.0
    with pytest.raises(UnsupportedKernelError):
        operator_apply(msm_left_int(0.5, 0.3, 0.2, 0.4, 1.1), f, 1.0)
    with pytest.raises(UnsupportedKernelError):
        operator_apply(msm_right_int(0.5, 0.3, 0.2, 0.4, 1.1), f, 1.0)
    with pytest.raises(UnsupportedKernelError):
        operator_apply(msm_left_deriv(0.5, 0.3, 0.2, 0.4, 1.1), f, 1.0)
    with pytest.raises(UnsupportedKernelError):
        operator_apply(msm_right_deriv(0.5, 0.3, 0.2, 0.4, 1.1), f, 1.0)


def test_domain_errors():
    f = lambda t: 1.0
    with pytest.raises(DomainError):
        operator_apply(rl_left(0.5), f, 0.0)
    with pytest.raises(DomainError):
        operator_apply(rl_left(0.5), f, -1.0)
    with pytest.raises(DomainError):
        operator_apply(rl_left(0.0), f, 1.0)
    with pytest.raises(DomainError):
        operator_apply(msm_left_int(0.5, 0.0, 0.2, 0.4, -1.1), f, 1.0)


def test_error_estimate_is_usable():
    op = saigo_left(0.6, 0.2, 0.4)
    want = power_image(op, 1.5).value_at(2.0)
    res = operator_apply(op, lambda t: t**0.5, 2.0, power_at_zero=0.5)
    assert isinstance(res, QuadResult)
    assert res.error >= 0.0
    assert abs(res.value - want) <= max(100.0 * res.error, 1e-12 * abs(want))


def test_node_array_evaluator_matches_per_node():
    def g(u):
        return math.exp(u) * math.cos(3.0 * u)

    per_node = quad_endpoint_singular(g, -0.4, 0.7)
    whole = quad_endpoint_singular(
        lambda u: [g(ui) for ui in u.tolist()], -0.4, 0.7, on_node_array=True
    )
    assert whole == per_node


def test_gj_rule_node_array_is_cached_readonly():
    nodes, _, _, node_array = _gj_rule(16, -0.25, 0.5)
    assert node_array.tolist() == list(nodes)
    assert not node_array.flags.writeable
    assert _gj_rule(16, -0.25, 0.5)[3] is node_array


def per_node_kernel_quad(kernel, a0, b0, s, cfg=QuadConfig()):
    """_kernel_quad with the scalar series called once per node: the
    reference the node-array evaluation must reproduce bit for bit."""
    ka, kb, kc = kernel
    if is_nonpositive_integer(ka) or is_nonpositive_integer(kb) or abs(
        (kc - ka - kb) - round(kc - ka - kb)
    ) < 1e-9:
        return quad_endpoint_singular(
            lambda u: gauss_2f1(ka, kb, kc, 1.0 - u) * s(u), a0, b0, cfg
        )
    e = kc - ka - kb
    right = quad_endpoint_singular(
        lambda v: (1.0 - v / 2.0) ** a0
        * gauss_2f1(ka, kb, kc, 1.0 - (1.0 - v / 2.0))
        * s(1.0 - v / 2.0),
        b0, 0.0, cfg,
    )
    value = 0.5 ** (b0 + 1.0) * right.value
    error = 0.5 ** (b0 + 1.0) * right.error
    nodes = right.nodes
    halves = (
        (_connection_coefficient((kc, e), (kc - ka, kc - kb)), (ka, kb, 1.0 - e), a0),
        (_connection_coefficient((kc, -e), (ka, kb)), (kc - ka, kc - kb, 1.0 + e), a0 + e),
    )
    for coeff, (pa, pb, pc), power in halves:
        if coeff == 0.0:
            continue
        part = quad_endpoint_singular(
            lambda v: (1.0 - v / 2.0) ** b0 * gauss_2f1(pa, pb, pc, v / 2.0) * s(v / 2.0),
            power, 0.0, cfg,
        )
        value += coeff * 0.5 ** (power + 1.0) * part.value
        error += abs(coeff) * 0.5 ** (power + 1.0) * part.error
        nodes = max(nodes, part.nodes)
    return QuadResult(value, error, nodes)


@pytest.mark.parametrize("alpha,beta,eta", [
    (0.6, 0.2, 0.4),    # split at 1/2, both connection halves
    (0.6, 0.2, 1.0),    # polynomial kernel
    (0.6, 0.2, 1.2),    # integer exponent difference: one rule, z -> 1
    (1.3, -0.45, 0.7),
])
def test_kernel_quad_bit_equal_to_per_node_series(alpha, beta, eta):
    def s(u):
        t = 2.0 * u
        return (1.0 + t * t) ** 0.5

    kernel = (alpha + beta, -eta, alpha)
    want = per_node_kernel_quad(kernel, 0.5, alpha - 1.0, s)
    _kernel_piece.cache_clear()
    # the first call fills the memo, the second is served from it
    assert _kernel_quad(kernel, 0.5, alpha - 1.0, s, QuadConfig()) == want
    misses = _kernel_piece.cache_info().misses
    assert misses > 0
    assert _kernel_quad(kernel, 0.5, alpha - 1.0, s, QuadConfig()) == want
    assert _kernel_piece.cache_info().misses == misses


def test_kernel_piece_memo_is_a_bounded_module_cache():
    # perfbench's cold passes empty every module-level cache_clear()
    assert callable(_kernel_piece.cache_clear)
    assert _kernel_piece.cache_parameters()["maxsize"] is not None


def test_kernel_piece_memo_keys_on_the_power():
    def s(u):
        return 1.0 + u

    kernel = (0.8, -0.4, 0.6)
    nodes = _gj_rule(64, -0.4, 0.0)[3].tobytes()
    _kernel_piece.cache_clear()
    # two kernels differing only in a0 share the right half's rule
    first = _kernel_piece(kernel, "right_half", 0.5, nodes)
    second = _kernel_piece(kernel, "right_half", 0.25, nodes)
    assert _kernel_piece.cache_info().misses == 2
    assert first[1] == second[1]
    assert first[0] != second[0]
    for a0 in (0.5, 0.25):
        assert _kernel_quad(kernel, a0, -0.4, s, QuadConfig()) == per_node_kernel_quad(
            kernel, a0, -0.4, s
        )


# Weight exponents of the cor5 point whose quadrature never stabilizes
# (see test_cli.test_cor5_nonconverged_point_keeps_pass); moments of the
# weight frozen from mpmath at 40 digits.
COR5_WEIGHT = (-0.9205419540570966, -0.5136512782996775)
COR5_MASS = 13.98789790805212364814708590872913351788
COR5_FIRST_MOMENT = 1.964365041535668847772142153111062851493


def test_gj_rule_mass_at_strong_singularity():
    for n in (64, 128, 512):
        nodes, weights, scale, _ = _gj_rule(n, *COR5_WEIGHT)
        assert math.isclose(scale * math.fsum(weights), COR5_MASS, rel_tol=1e-15)


@pytest.mark.xfail(
    strict=True,
    reason="scipy roots_jacobi weights at exponent -0.92 are good to about "
    "1e-8: the first moment is off by 8.8e-12 (n = 64) to 8e-9 (n = 512)",
)
def test_gj_rule_first_moment_at_strong_singularity():
    for n in (64, 128, 512):
        nodes, weights, scale, _ = _gj_rule(n, *COR5_WEIGHT)
        moment = scale * math.fsum(w * u for w, u in zip(weights, nodes))
        assert math.isclose(moment, COR5_FIRST_MOMENT, rel_tol=1e-13)
