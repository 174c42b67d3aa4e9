"""Quadrature oracle tests.

The closed-form power images provide exact reference values, so the
Fejer rules are checked end to end: weight handling, the t = x*u and
t = x/u substitutions, and the split evaluation of 2F1 kernels. The rules'
weights are checked against exact modified moments frozen from mpmath.
"""

import itertools
import json
import math
import random
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracimage import identities, quadrature
from fracimage.errors import DomainError, NonConvergedError, PoleError, UnsupportedKernelError
from fracimage.gammafns import is_nonpositive_integer
from fracimage.hypergeom import gauss_2f1
from fracimage.identities import (
    DEFAULT_GRIDS,
    IDENTITY_FAMILY,
    TAGS,
    IdentityId,
    quadrature_value,
)
from fracimage.jacobi import JacobiSpec, PolySpec, _poly_eval, jacobi_p, m_poly_coefficients
from fracimage.operators import (
    FAMILIES,
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
    saigo_right,
    validate_domain,
)
from fracimage.quadrature import (
    ERROR_FLOOR,
    NODE_COUNT,
    NOISE_FLOOR,
    NULL_SAFETY,
    QuadResult,
    _connection_coefficient,
    _gj_rule,
    _kernel_piece,
    _kernel_quad,
    operator_apply,
    quad_endpoint_singular,
)


def one(t):
    """Smooth factor of a bare monomial: its power goes into the weight."""
    return 1.0


def exp(u):
    return [math.exp(v) for v in u]


def cos57(u):
    return [math.cos(57.0 * v) for v in u]


def kink(u):
    return [abs(v - 0.3) for v in u]


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
    res = quad_endpoint_singular(exp, 0.0, 0.0)
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
    # every quadrature path reaches quad_endpoint_singular before tol is used
    for tol in (0.0, -1e-10):
        with pytest.raises(ValueError, match="tol must be > 0"):
            quad_endpoint_singular(lambda u: 1.0, 0.0, 0.0, tol)
        with pytest.raises(ValueError, match="tol must be > 0"):
            operator_apply(rl_left(0.5), one, 1.0, tol)


def test_config_rejects_nan_tolerance():
    # no comparison with NaN is true, so a NaN target passed every check
    with pytest.raises(ValueError, match="tol must be > 0"):
        quad_endpoint_singular(lambda u: 1.0, 0.0, 0.0, math.nan)
    with pytest.raises(ValueError, match="tol must be > 0"):
        operator_apply(saigo_left(0.6, 0.2, 0.4), one, 1.0, math.nan, power=1.0)


def test_nonintegrable_weight_rejected():
    with pytest.raises(DomainError):
        quad_endpoint_singular(lambda u: 1.0, -1.0, 0.0)
    with pytest.raises(DomainError):
        quad_endpoint_singular(lambda u: 1.0, 0.0, -1.5)


def count_builds(monkeypatch) -> list:
    """The node count of every rule built from here on, with every rule
    built before forgotten."""
    builds = []
    real = quadrature.roots_jacobi
    monkeypatch.setattr(quadrature, "roots_jacobi", lambda n, a0, a1: builds.append(n) or
                        real(n, a0, a1))
    _gj_rule.cache_clear()
    return builds


@pytest.mark.parametrize("a0, a1", [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)])
def test_nan_weight_exponent_is_refused_before_any_rule(monkeypatch, a0, a1):
    # no comparison with NaN is true, so a NaN exponent passed the check,
    # had a rule built and cached under its key, and was then reported as
    # an integrand not finite on the 16-node rule
    builds = count_builds(monkeypatch)
    with pytest.raises(DomainError, match="weight exponents must be > -1"):
        quad_endpoint_singular(lambda u: 1.0, a0, a1)
    assert builds == [] and _gj_rule.cache_info().currsize == 0


@pytest.mark.parametrize("make, family", [
    # the non-finite-integrand OverflowError of the NaN weight exponent
    (lambda: rl_left(math.nan), "rl-left"),
    (lambda: rl_right(math.inf), "rl-right"),
    # ValueError "cannot convert float NaN to integer" from round(e)
    (lambda: saigo_left(0.5, math.nan, 0.2), "saigo-left"),
    (lambda: msm_left_int(0.5, 0.0, 0.2, 0.4, -math.inf), "msm-left-int"),
])
def test_non_finite_operator_parameter_is_refused_by_family(monkeypatch, make, family):
    builds = count_builds(monkeypatch)
    with pytest.raises(DomainError, match=f"^{family} parameters must be finite"):
        operator_apply(make(), one, 0.5)
    assert builds == []


def test_each_rule_is_built_once(monkeypatch):
    # one rule per (node count, weight): a refinement builds each size once,
    # and a repeated quadrature finds every rule it needs already built
    builds = count_builds(monkeypatch)

    def g(u):
        return [math.cos(40.0 * v) for v in u]

    first = quad_endpoint_singular(g, 0.3125, -0.4375)
    assert first.nodes == 64 and builds == [16, 32, 64]
    builds.clear()
    assert quad_endpoint_singular(g, 0.3125, -0.4375) == first
    assert builds == []


def test_nonconverged_oscillatory(monkeypatch):
    monkeypatch.setattr(quadrature, "NODE_COUNT", 8)
    monkeypatch.setattr(quadrature, "MAX_REFINEMENTS", 1)
    with pytest.raises(NonConvergedError):
        quad_endpoint_singular(cos57, 0.0, 0.0, 1e-15)


@pytest.mark.parametrize("g", [
    lambda u: [1e300 * (1e300 * v) for v in u],  # +inf at every node
    # +inf and -inf, so nan sums
    lambda u: [1e300 * v * 1e300 * v * (1.0 - 2.0 * v) for v in u],
    lambda u: [v if v < 0.5 else math.nan for v in u],
])
def test_non_finite_integrand_raises_overflow_without_warnings(monkeypatch, g):
    # an integrand past the double range was refined to the last rule with
    # numpy's RuntimeWarnings and then reported as not converged
    calls = []
    real = quadrature._gj_rule
    monkeypatch.setattr(quadrature, "_gj_rule", lambda *a: calls.append(a[0]) or real(*a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="not finite"):
            quad_endpoint_singular(g, 0.5, -0.5)
    assert calls == [NODE_COUNT]


def test_no_refinement_budget_accepts_only_the_first_rule(monkeypatch):
    # the error estimate judges the first rule alone: a smooth integrand is
    # accepted there, a kinked one has no second rule to reach
    monkeypatch.setattr(quadrature, "MAX_REFINEMENTS", 0)
    res = quad_endpoint_singular(exp, 0.0, 0.0, 1e-3)
    assert res.nodes == NODE_COUNT
    assert math.isclose(res.value, math.e - 1.0, rel_tol=1e-13)
    with pytest.raises(NonConvergedError):
        quad_endpoint_singular(kink, 0.0, 0.0, 1e-3)


def test_nonconverged_message_names_the_largest_rule(monkeypatch):
    monkeypatch.setattr(quadrature, "NODE_COUNT", 8)
    monkeypatch.setattr(quadrature, "MAX_REFINEMENTS", 2)
    with pytest.raises(NonConvergedError, match=r"within 32 nodes \(2 doublings from 8\)"):
        quad_endpoint_singular(cos57, 0.0, 0.0, 1e-15)


def test_largest_rule_has_4096_nodes():
    assert NODE_COUNT << quadrature.MAX_REFINEMENTS == 4096


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("a0, a1", [(-0.95, 0.0), (0.0, 0.0), (2.5, -0.9), (0.0, 3.2),
                                    (-0.99, -0.99)])
def test_null_rows_annihilate_every_lower_degree(n, a0, a1):
    # the rows read g's interpolant's coefficients on T_(n-1) ... T_(n-4),
    # in y = 1 - 2u: to rounding, zero on every polynomial of lower degree
    # (here the weight's own Jacobi polynomials), and each one on its own
    # T_k and zero on the others
    nodes, _, _, null = _gj_rule(n, a0, a1)
    assert len(null) == 4 and {len(row) for row in null} == {n}

    def coefficients(values):
        return [math.fsum(r * v for r, v in zip(row, values)) for row in null]

    for degree in range(n - 4):
        p = [jacobi_p(JacobiSpec(degree, a0, a1), 1.0 - 2.0 * u) for u in nodes]
        assert max(map(abs, coefficients(p))) <= 1e-13 * max(map(abs, p))
    for i, k in enumerate((n - 1, n - 2, n - 3, n - 4)):
        t = [math.cos(k * math.acos(1.0 - 2.0 * u)) for u in nodes]
        got = coefficients(t)
        assert math.isclose(got[i], 1.0, rel_tol=1e-13)
        assert max(abs(c) for j, c in enumerate(got) if j != i) <= 1e-13


def test_default_verify_accepts_every_integral_on_its_first_rule(monkeypatch):
    # the error estimate must not refine a smooth integrand: every one of the
    # default grid's 920 integrals is accepted at NODE_COUNT nodes
    nodes = []

    def counted(*args, _real=quad_endpoint_singular):
        res = _real(*args)
        nodes.append(res.nodes)
        return res

    monkeypatch.setattr(quadrature, "quad_endpoint_singular", counted)
    records = identities.run_verification(identities.SweepConfig(list(TAGS), {}))
    assert {r.verdict for r in records} == {"PASS"}
    assert len(nodes) == 920
    assert set(nodes) == {NODE_COUNT}


def test_jittered_default_verify_accepts_every_integral_on_its_first_rule(monkeypatch):
    # the same on one jittered copy of the default grid, where no two points
    # share a rule or a kernel series: each nonzero coordinate except n and p
    # scaled by a seeded uniform +-5% factor (perfbench's random-grid rule)
    rng = random.Random(21)
    nodes = []

    def counted(*args, _real=quad_endpoint_singular):
        res = _real(*args)
        nodes.append(res.nodes)
        return res

    monkeypatch.setattr(quadrature, "quad_endpoint_singular", counted)
    verdicts = set()
    for tag, grid in DEFAULT_GRIDS.items():
        for combo in itertools.product(*grid.values()):
            point = {s: [v if s in ("n", "p") or v == 0 else v * rng.uniform(0.95, 1.05)]
                     for s, v in zip(grid, combo)}
            config = identities.SweepConfig([tag], {tag: point})
            verdicts.update(r.verdict for r in identities.run_verification(config))
    assert verdicts == {"PASS"}
    assert len(nodes) == 920
    assert set(nodes) == {NODE_COUNT}


# Points of the lem3 and cor1 grids at mu = epsilon = 0.4, where the Saigo
# kernel's exponent difference is an integer and the kernel has a logarithm
# at u -> 0. One rule over the whole kernel left lem3 at tau 1.5
# SKIPPED(nonconverged) and omitted cor1's quadrature at n 3, because the
# 2F1 at 1-u needed over 10^6 terms next to u = 0; the split beside the
# logarithm keeps every series argument below 1/2.
LOG_KERNEL = {"delta": 0.6, "mu": 0.4, "epsilon": 0.4}


@pytest.mark.parametrize("tag, point, quad_diff", [
    ("lem3", dict(tau=2.5, x=0.5), 1e-12),
    ("lem3", dict(tau=1.5, x=0.5), 1e-12),
    ("cor1", dict(n=1, p=9.0, q=0.0, tau=2.0, x=0.5), 1e-10),
    ("cor1", dict(n=3, p=9.0, q=1.5, tau=2.0, x=1.0), 1e-10),
])
def test_logarithmic_kernel_verdicts(tag, point, quad_diff):
    grid = {k: [v] for k, v in dict(LOG_KERNEL, **point).items()}
    (record,) = identities.run_verification(identities.SweepConfig([tag], {tag: grid}))
    assert record.verdict == "PASS"
    assert record.ledger_note is None
    diff = identities.rel_diff(record.quadrature_value, record.closed_form_value)
    assert diff <= quad_diff


# Grids of lem3, cor1, lem4 and cor4 where the Saigo kernel's exponent
# difference e = epsilon - mu is an integer: mu = epsilon, epsilon - mu = 1
# and epsilon - mu = -1, each from the default grids
LOG_GRIDS = {
    "mu=epsilon": {"lem3": {"mu": [0.4]}, "cor1": {"mu": [0.4]},
                   "lem4": {"mu": [0.0]}, "cor4": {"mu": [0.4]}},
    "epsilon-mu=1": {tag: {"epsilon": [1.2]} for tag in ("lem3", "cor1", "lem4", "cor4")},
    "epsilon-mu=-1": {"lem3": {"mu": [1.4]}, "cor1": {"mu": [1.4]},
                      "lem4": {"mu": [1.0]}, "cor4": {"mu": [1.4]}},
}


@pytest.mark.parametrize("grids", LOG_GRIDS.values(), ids=LOG_GRIDS)
def test_logarithmic_grids_keep_every_quadrature(grids):
    # the single rule over a logarithmic kernel summed the 2F1 at 1-u next
    # to u = 0: lem3 records were SKIPPED(nonconverged) and cor1/cor4
    # quadrature checks omitted, after tens of seconds per grid
    records = identities.run_verification(identities.SweepConfig(list(grids), grids))
    for record in records:
        if record.verdict == "SKIPPED(domain)":
            assert record.identity == "cor4"
            continue
        assert record.verdict == "PASS", record
        assert "quadrature comparison omitted" not in (record.ledger_note or ""), record
        diff = identities.rel_diff(record.quadrature_value, record.closed_form_value)
        assert diff <= 1e-10, record


@pytest.mark.parametrize("tau", [1.5, 2.5])
@pytest.mark.parametrize("d", [0.0, 1e-9, 1e-8, 1e-6, 1e-5])
def test_near_logarithmic_kernel_meets_its_target(tau, d):
    # lem3 at mu = 0.4, epsilon = 0.4 + d: at d = 0 the series at 1-u did
    # not converge within 10^6 terms; near it the split's coefficients
    # Gamma(+-d) cancel, and its values were 1e-7 off with an error
    # estimate that missed the target
    op = saigo_left(0.6, 0.4, 0.4 + d)
    want = power_image(op, tau).value_at(0.5)
    res = operator_apply(op, one, 0.5, 1e-10, power=tau - 1.0)
    deviation = abs(res.value - want)
    assert deviation <= 1e-12 * abs(want)
    assert res.error >= deviation


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    right=st.booleans(),
    alpha=st.floats(min_value=0.2, max_value=2.0),
    beta=st.floats(min_value=-1.0, max_value=1.5),
    k=st.sampled_from([-1, 0, 1]),
    d=st.floats(min_value=-1e-3, max_value=1e-3),
    inside=st.floats(min_value=0.05, max_value=2.0),
    x=st.floats(min_value=0.25, max_value=4.0),
)
def test_saigo_quadrature_at_and_near_logarithmic_kernels(right, alpha, beta, k, d, inside, x):
    # eta - beta within 1e-3 of -1, 0 or 1, and tau `inside` past the
    # binding tau margin of validate_domain (tau > bound on the left,
    # tau < bound on the right); each margin is +-(tau - bound)
    op = (saigo_right if right else saigo_left)(alpha, beta, beta + k + d)
    edges = [c.margin for c in validate_domain(op, 0.0) if c.label.startswith("tau")]
    tau = min(edges) - inside if right else max(-m for m in edges) + inside
    power = FAMILIES[op.family].monomial_power(tau)
    try:
        want = power_image(op, tau).value_at(x)
        res = operator_apply(op, one, x, 1e-8, power=power)
    except (NonConvergedError, DomainError, PoleError, OverflowError):
        return
    assert math.isclose(res.value, want, rel_tol=1e-9)


@pytest.mark.parametrize("right", [False, True])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    a=st.floats(min_value=-1.0, max_value=1.5),
    b=st.floats(min_value=-1.0, max_value=1.5),
    c=st.floats(min_value=0.2, max_value=2.0),
    k=st.sampled_from([-1, 0, 1]),
    d=st.floats(min_value=-1e-3, max_value=1e-3),
    inside=st.floats(min_value=0.05, max_value=2.0),
    x=st.floats(min_value=0.25, max_value=4.0),
)
def test_msm_quadrature_at_and_near_logarithmic_kernels(right, a, b, c, k, d, inside, x):
    # the single-series MSM slices with the kernel's e = kc - ka - kb within
    # 1e-3 of -1, 0 or 1: msm-left-int at alpha' = 0 with gamma = alpha +
    # beta + k + d (e = gamma - alpha - beta; c is beta'), msm-right-int at
    # alpha = 0 with beta' = alpha' + k + d (e = beta' - alpha'; c is gamma),
    # 20 examples each. The order gamma is at least 0.2 on both sides, as the
    # Saigo twin's: at an order near 0 the quadrature loses relative
    # precision ~1e-16 / order whatever the kernel (CHANGES.md, FOUND).
    # Every tau margin of both is tau - bound, and tau is `inside` past the
    # binding one
    if right:
        op = msm_right_int(0.0, a, b, a + k + d, c)
    else:
        assume(a + b + k + d >= 0.2)
        op = msm_left_int(a, 0.0, b, c, a + b + k + d)
    edges = [m.margin for m in validate_domain(op, 0.0) if m.label.startswith("tau")]
    tau = max(-m for m in edges) + inside
    power = FAMILIES[op.family].monomial_power(tau)
    try:
        want = power_image(op, tau).value_at(x)
        res = operator_apply(op, one, x, 1e-8, power=power)
    except (NonConvergedError, DomainError, PoleError, OverflowError):
        return
    assert math.isclose(res.value, want, rel_tol=1e-9)


def test_kinked_integrand_is_not_accepted_at_the_first_rule():
    # |u - 0.3| has Chebyshev coefficients that decay only algebraically,
    # so its first rule's estimate is far above 1e-10
    try:
        res = quad_endpoint_singular(kink, 0.0, 0.0, 1e-10)
    except NonConvergedError:
        return
    assert res.nodes > NODE_COUNT


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
        # the rule's mass at weight exponent 170.5 was off by 6.9e-14
        (171.5, 2.0, 3.01757758104689e-261, 1e-15),
    ],
)
def test_rl_left_large_order(order, x, expected, rtol):
    res = operator_apply(rl_left(order), one, x, power=1.0)
    assert math.isclose(res.value, expected, rel_tol=rtol)


def test_saigo_example_without_power_hint():
    op = saigo_left(0.6, 0.2, 0.4)
    want = power_image(op, 1.5).value_at(1.0)
    res = operator_apply(op, lambda t: [v**0.5 for v in t], 1.0)
    assert math.isclose(res.value, want, rel_tol=1e-6)


def test_power_hint_gives_exact_weight():
    op = saigo_left(0.6, 0.2, 0.4)
    want = power_image(op, 1.5).value_at(1.0)
    res = operator_apply(op, one, 1.0, power=0.5)
    assert math.isclose(res.value, want, rel_tol=1e-12)
    # with the power in the weight the integrand is smooth, so the first
    # rule is accepted
    assert res.nodes == NODE_COUNT


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
    res = operator_apply(op, one, x, power=tau - 1.0)
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
    res = operator_apply(op, one, x, power=tau - 1.0)
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
    res = operator_apply(op, one, x, power=-tau)
    assert math.isclose(res.value, want, rel_tol=1e-10)


def test_polynomial_kernel_path():
    # eta = 1 makes the kernel a degree-1 polynomial, no split needed
    op = saigo_left(0.6, 0.2, 1.0)
    want = power_image(op, 1.5).value_at(2.0)
    res = operator_apply(op, one, 2.0, power=0.5)
    assert math.isclose(res.value, want, rel_tol=1e-11)


def test_integer_exponent_difference_fallback():
    # eta - beta = 1 puts the split's connection coefficients on a pole; the
    # splits beside it are interpolated
    op = saigo_left(0.6, 0.2, 1.2)
    want = power_image(op, 1.5).value_at(2.0)
    res = operator_apply(op, one, 2.0, power=0.5)
    assert math.isclose(res.value, want, rel_tol=1e-9)


def test_linearity():
    op = saigo_left(0.6, 0.2, 0.4)
    x = 1.5

    # t^0.3 and t^1.2 share the leading power t^0.3
    def h(t):
        return [v**0.9 for v in t]

    def combo(t):
        return [2.5 * one(v) - 1.75 * w for v, w in zip(t, h(t))]

    lhs = operator_apply(op, combo, x, power=0.3).value
    rhs = 2.5 * operator_apply(op, one, x, power=0.3).value
    rhs -= 1.75 * operator_apply(op, h, x, power=0.3).value
    assert math.isclose(lhs, rhs, rel_tol=1e-9)


def test_left_scaling_invariance():
    # the substitution t = x*u leaves only the analytic power of x
    op = msm_left_int(0.5, 0.0, 0.2, 0.4, 1.1)
    img = power_image(op, 2.0)
    v1 = operator_apply(op, one, 0.5, power=1.0).value
    v2 = operator_apply(op, one, 2.0, power=1.0).value
    assert math.isclose(v2 / v1, 4.0**img.exponent, rel_tol=1e-11)


def test_right_scaling_invariance():
    op = saigo_right(0.7, 0.2, 1.4)
    img = power_image(op, 0.5)
    v1 = operator_apply(op, one, 2.0, power=-0.5).value
    v2 = operator_apply(op, one, 4.0, power=-0.5).value
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
    res = operator_apply(op, one, 2.0, power=0.5)
    assert isinstance(res, QuadResult)
    assert res.error >= 0.0
    assert abs(res.value - want) <= max(100.0 * res.error, 1e-12 * abs(want))


def per_node_quad(g, a0, a1, tol=1e-10):
    """quad_endpoint_singular with g called once per node: the scalar
    reference the node-tuple evaluation must reproduce bit for bit. A rule
    is accepted on its error estimate or on the noise floor of its L1
    mass: the estimate extrapolates the last pair of Chebyshev
    coefficients by its ratio to the pair before, and from the second rule
    on takes the difference from the previous rule where that is smaller."""
    n, prev = quadrature.NODE_COUNT, None
    for _ in range(quadrature.MAX_REFINEMENTS + 1):
        nodes, weights, scale, null = _gj_rule(n, a0, a1)
        values = [g(u) for u in nodes]
        terms = [w * v for w, v in zip(weights, values)]
        est = scale * math.fsum(terms)
        l1 = scale * math.fsum(abs(t) for t in terms)
        c = [abs(math.fsum(r * v for r, v in zip(row, values))) for row in null]
        last, before = max(c[:2]), max(c[2:])
        error = NULL_SAFETY * scale * last * (min(last / before, 1.0) if before else 1.0)
        if prev is not None:
            error = min(error, NULL_SAFETY * abs(est - prev))
        if error <= tol * abs(est) or error <= NOISE_FLOOR * l1:
            return QuadResult(est, max(error, ERROR_FLOOR * l1), n)
        n, prev = 2 * n, est
    raise NonConvergedError("per-node reference did not stabilize")


def test_node_array_evaluator_matches_per_node():
    # the integrand sees the whole node tuple, and gives the per-node values
    def g(u):
        return (1.0 + u) ** 0.3 * (1.0 + u * u) / (2.0 + u)

    def g_nodes(u):
        return [g(v) for v in u]

    assert quad_endpoint_singular(g_nodes, -0.4, 0.7) == per_node_quad(g, -0.4, 0.7)


def test_gj_rule_node_array_is_cached_readonly():
    nodes, weights, scale, null = _gj_rule(16, -0.25, 0.5)
    assert type(nodes) is type(weights) is type(null) is tuple
    assert len(nodes) == len(weights) == 16
    assert [len(row) for row in null] == [16, 16, 16, 16]
    # the nodes are interior and ascending, the same for every weight
    assert 0.0 < nodes[0] and nodes[-1] < 1.0 and list(nodes) == sorted(nodes)
    assert _gj_rule(16, 2.0, -0.5)[0] is nodes
    assert math.isclose(scale, math.gamma(0.75) * math.gamma(1.5) / math.gamma(2.25),
                        rel_tol=1e-15)
    assert math.isclose(math.fsum(weights), 1.0, rel_tol=1e-15)
    cached = _gj_rule(16, -0.25, 0.5)
    assert cached[1] is weights and cached[3] is null


def per_node_kernel_quad(kernel, a0, b0, s, tol=1e-10):
    """_kernel_quad with the series and s called once per node: the
    reference the memoised node-tuple evaluation must reproduce bit for
    bit."""
    ka, kb, kc = kernel
    if is_nonpositive_integer(ka) or is_nonpositive_integer(kb):
        return per_node_quad(
            lambda u: gauss_2f1(ka, kb, kc, 1.0 - u) * s(u), a0, b0, tol
        )
    e = kc - ka - kb
    k, h = round(e), quadrature.LOG_STEP
    if abs(e - k) < h / 3.0:
        # the splits at e = k +- h, k +- 2h and k +- 3h, interpolated to e
        t, steps = (e - k) / h, (-3, -2, -1, 1, 2, 3)
        parts = [per_node_kernel_quad((ka, kc - ka - k - j * h, kc), a0, b0, s, tol * h)
                 for j in steps]
        six = [math.prod((t - m) / (j - m) for m in steps if m != j) for j in steps]
        four = [math.prod((t - m) / (j - m) for m in steps[1:-1] if m != j)
                for j in steps[1:-1]]
        value = math.fsum(w * p.value for w, p in zip(six, parts))
        error = math.fsum(abs(w) * p.error for w, p in zip(six, parts)) + abs(
            value - math.fsum(w * p.value for w, p in zip(four, parts[1:-1])))
        assert error <= tol * abs(value)
        return QuadResult(value, error, max(p.nodes for p in parts))
    right = per_node_quad(
        lambda v: (1.0 - v / 2.0) ** a0
        * gauss_2f1(ka, kb, kc, 1.0 - (1.0 - v / 2.0))
        * s(1.0 - v / 2.0),
        b0, 0.0, tol,
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
        part = per_node_quad(
            lambda v: (1.0 - v / 2.0) ** b0 * gauss_2f1(pa, pb, pc, v / 2.0) * s(v / 2.0),
            power, 0.0, tol,
        )
        value += coeff * 0.5 ** (power + 1.0) * part.value
        error += abs(coeff) * 0.5 ** (power + 1.0) * part.error
        nodes = max(nodes, part.nodes)
    return QuadResult(value, error, nodes)


@pytest.mark.parametrize("alpha,beta,eta", [
    (0.6, 0.2, 0.4),    # split at 1/2, both connection halves
    (0.6, 0.2, 1.0),    # polynomial kernel
    (0.6, 0.2, 1.2),    # integer exponent difference: splits beside it
    (1.3, -0.45, 0.7),
])
def test_kernel_quad_bit_equal_to_per_node_series(alpha, beta, eta):
    def s(u):
        t = 2.0 * u
        return (1.0 + t * t) ** 0.5

    def s_nodes(u):
        return [s(v) for v in u]

    kernel = (alpha + beta, -eta, alpha)
    want = per_node_kernel_quad(kernel, 0.5, alpha - 1.0, s)
    _kernel_piece.cache_clear()
    # the first call fills the memo, the second is served from it
    assert _kernel_quad(kernel, 0.5, alpha - 1.0, s_nodes, 1e-10) == want
    misses = _kernel_piece.cache_info().misses
    assert misses > 0
    assert _kernel_quad(kernel, 0.5, alpha - 1.0, s_nodes, 1e-10) == want
    assert _kernel_piece.cache_info().misses == misses


# (a, b, c), rho and int_0^1 u^(rho-1) (1-u)^(c-1) 2F1(a, b; c; 1-u) du =
# Gamma(c) Gamma(rho) Gamma(c+rho-a-b) / (Gamma(c+rho-a) Gamma(c+rho-b))
# (Gradshteyn-Ryzhik 7.512.4), frozen from mpmath at 30 digits
BETA_GAUSS = [
    ((0.3, 0.7, 1.6), 1.25, 0.518045638635902083980761037958),
    ((0.8, -0.4, 0.6), 2.0, 0.88083762046543583479086196468),
    ((-2.0, 0.7, 1.6), 1.25, 0.285747342684497953963332358501),  # polynomial kernel
    ((0.4, 0.5, 0.9001), 1.5, 0.872533969151731946820960501253),  # e = 1e-4
    ((0.3, 0.7, 2.0), 1.5, 0.289903553253468830715789000637),  # e = 1
    ((0.8, 0.7, 0.5), 2.5, 1.62438397891760824070229729716),  # e = -1
    ((0.3, 0.7, 1.9998), 0.75, 0.8580373081574199296600290222),
]


@pytest.mark.parametrize("kernel,rho,want", BETA_GAUSS)
def test_kernel_quad_matches_the_beta_gauss_integral(kernel, rho, want):
    # a closed form that shares no code with the image rows in operators
    res = _kernel_quad(kernel, rho - 1.0, kernel[2] - 1.0, one, tol=1e-10)
    deviation = abs(res.value - want)
    assert deviation <= 1e-12 * want
    assert res.error >= deviation


def test_kernel_piece_memo_is_a_bounded_module_cache():
    # perfbench's cold passes empty every module-level cache_clear()
    assert callable(_kernel_piece.cache_clear)
    assert _kernel_piece.cache_parameters()["maxsize"] is not None


def test_kernel_piece_memo_keys_on_the_power():
    def s(u):
        return 1.0 + u

    def s_nodes(u):
        return [s(v) for v in u]

    kernel = (0.8, -0.4, 0.6)
    _kernel_piece.cache_clear()
    # two kernels differing only in a0 share the right half's rule
    first = _kernel_piece(kernel, "right_half", 0.5, 64)
    second = _kernel_piece(kernel, "right_half", 0.25, 64)
    assert _kernel_piece.cache_info().misses == 2
    assert all(type(a) is tuple and len(a) == 64 for a in first + second)
    assert first[1] == second[1]
    assert first[0] != second[0]
    for a0 in (0.5, 0.25):
        assert _kernel_quad(kernel, a0, -0.4, s_nodes, 1e-10) == per_node_kernel_quad(
            kernel, a0, -0.4, s
        )


def per_node_operator_apply(op, g, x, power, tol):
    """operator_apply with g, the substitution and the kernel evaluated once
    per node on Python floats; power is the operand's leading power."""
    spec = FAMILIES[op.family]
    recipe = spec.quadrature
    order = op.named_params()[recipe.order]

    def smooth(u):
        return g(x / u if spec.right else x * u)

    w0, w1 = recipe.u_power(*op.params, power), order - 1.0
    if recipe.kernel is None:
        quad = per_node_quad(smooth, w0, w1, tol)
    else:
        quad = per_node_kernel_quad(recipe.kernel(*op.params), w0, w1, smooth, tol)
    factor = x ** recipe.x_power(*op.params, power) / math.gamma(order)
    return QuadResult(factor * quad.value, abs(factor) * quad.error, quad.nodes)


# verify's quadrature target at its default tolerance
VERIFY_QUAD = 1e-8


@pytest.mark.parametrize("tag", [
    "thm1", "thm2", "cor1", "cor2", "cor3", "cor4", "cor5", "cor6",
])
def test_quadrature_value_bit_equal_to_per_node(tag):
    # every integral family on the polynomial operand, thm1 and thm2 on
    # their single-series slices (delta' = 0 and delta = 0)
    identity = IdentityId(tag)
    grid = DEFAULT_GRIDS[tag]
    spec = FAMILIES[IDENTITY_FAMILY[identity]]
    params = tuple(grid[s][0] for s in spec.symbols)
    poly = PolySpec(3, 9.0, 1.5)
    coeffs = m_poly_coefficients(poly)
    tau, x = grid["tau"][-1], grid["x"][-1]
    power = spec.monomial_power(tau)

    def g(t):
        return _poly_eval(coeffs, 1.0 / t if spec.right else t)

    op = OperatorSpec(IDENTITY_FAMILY[identity], params)
    want = per_node_operator_apply(op, g, x, power, VERIFY_QUAD)
    assert quadrature_value(identity, params, poly, tau, x, VERIFY_QUAD) == want


@pytest.mark.parametrize("tag", ["lem1", "lem2", "lem3", "lem4"])
def test_operator_apply_bit_equal_to_per_node_on_monomials(tag):
    grid = DEFAULT_GRIDS[tag]
    family, embedding = TAGS[tag].family, TAGS[tag].embedding
    spec = FAMILIES[family]
    op = OperatorSpec(family, tuple(grid[s][0] for s in spec.symbols))
    tau, x = grid["tau"][-1], grid["x"][-1]
    power = spec.monomial_power(tau)
    ops = [op]
    if embedding is not None:
        # the five-parameter embedding of the reduction check (lem3, lem4)
        ops.append(embedding(*op.params))
    for operator in ops:
        want = per_node_operator_apply(operator, one, x, power, VERIFY_QUAD)
        assert operator_apply(operator, one, x, VERIFY_QUAD, power=power) == want


# Weight exponents of the jittered cor5 point that needs an accurate rule
# (see test_cli.test_cor5_jittered_point_passes_with_quadrature); moments
# of the weight frozen from mpmath at 40 digits.
COR5_WEIGHT = (-0.9205419540570966, -0.5136512782996775)
COR5_MASS = 13.98789790805212364814708590872913351788
COR5_FIRST_MOMENT = 1.964365041535668847772142153111062851493


def test_gj_rule_mass_at_strong_singularity():
    for n in (64, 128, 512):
        _, weights, scale, _ = _gj_rule(n, *COR5_WEIGHT)
        assert math.isclose(scale * math.fsum(weights), COR5_MASS, rel_tol=1e-15)


def test_gj_rule_first_moment_at_strong_singularity():
    for n in (64, 128, 512):
        nodes, weights, scale, _ = _gj_rule(n, *COR5_WEIGHT)
        moment = scale * math.fsum(w * u for w, u in zip(weights, nodes))
        assert math.isclose(moment, COR5_FIRST_MOMENT, rel_tol=1e-13)


# M_k / M_0 of the weight (1-y)^a0 (1+y)^a1 on [-1, 1], the weight u^a0
# (1-u)^a1 at y = 1 - 2u, frozen from mpmath (tests/data/make_moments.py)
MOMENTS = json.loads((Path(__file__).parent / "data" / "modified_moments.json").read_text())


@pytest.mark.parametrize("n", [16, 4096])
@pytest.mark.parametrize(
    "case", MOMENTS["cases"], ids=lambda c: f"{c['exponent_at_0']},{c['exponent_at_1']}"
)
def test_rule_reproduces_the_exact_modified_moments(case, n):
    # the n-point rule integrates T_k exactly for k < n, so applied to T_k
    # it gives M_k / M_0: the forward recurrence and the FFT together stay
    # within 2e-13 of the exact moments at every k below 4,096, exponents
    # -0.99 to 170.5 (1.5e-13 measured, at (170.5, -0.99) and k near 4,095)
    a0, a1 = case["exponent_at_0"], case["exponent_at_1"]
    nodes, weights, _, _ = _gj_rule(n, a0, a1)
    for k, exact in zip(MOMENTS["k"], case["ratios"]):
        if k >= n:
            continue
        # T_k(y_j) = cos(k phi_j), phi_j = pi (2j+1) / (2n), reduced exactly
        t = [math.cos(math.pi * (k * (2 * j + 1) % (4 * n)) / (2 * n)) for j in range(n)]
        got = math.fsum(w * v for w, v in zip(weights, t))
        assert abs(got - float(exact)) <= 2e-13, (k, got, exact)


# Fejer's 16-point rule, the size of every quadrature's first rule, at the
# edge cases of the weight: alpha = beta (Gegenbauer), alpha = beta = 0
# (Legendre), alpha + beta = -1 and alpha + beta = 0, where the moment
# recurrence's k = 0 and k = 1 coefficients have removable zero
# denominators; the file says how its mpmath values were made.
FEJER_16 = json.loads((Path(__file__).parent / "data" / "fejer_16.json").read_text())


@pytest.mark.parametrize(
    "case", FEJER_16["cases"], ids=lambda c: f"{c['exponent_at_0']},{c['exponent_at_1']}"
)
def test_gj_rule_matches_mpmath_at_16_nodes(case):
    nodes, weights, scale, _ = _gj_rule(16, case["exponent_at_0"], case["exponent_at_1"])
    assert quadrature.NODE_COUNT == 16
    assert max(abs(u - want) for u, want in zip(nodes, case["nodes"])) <= 5e-16
    assert max(abs(scale * w / want - 1.0) for w, want in zip(weights, case["weights"])) <= 2e-14


def test_nodes_are_the_chebyshev_points():
    # u_j = cos^2(theta_j / 2), theta_j = pi (j + 1/2) / n, ascending; the
    # node next to u = 0 keeps its relative precision
    for n in (16, 4096):
        nodes = _gj_rule(n, 0.0, 0.0)[0]
        theta = [math.pi * (j + 0.5) / n for j in range(n)]
        want = sorted(math.cos(t / 2.0) ** 2 for t in theta)
        assert max(abs(u - w) for u, w in zip(nodes, want)) <= 4.5e-16
        assert math.isclose(nodes[0], math.sin(math.pi / (4 * n)) ** 2, rel_tol=1e-15)


def test_weight_past_the_double_range_is_refused_by_name():
    with pytest.raises(OverflowError, match=r"\(1-x\)\^1999.0 \(1\+x\)\^1.0: its mass factor"):
        quad_endpoint_singular(one, 1.0, 1999.0)


# int_0^1 u^a (1-u)^b du = B(a+1, b+1) at large exponents; the bounds are
# the errors of the scipy rule this builder replaced, rounded up.
@pytest.mark.parametrize("a, b, exact, rtol", [
    (0.0, 30.0, 1.0 / 31.0, 1.2e-14),
    (0.0, 100.0, 1.0 / 101.0, 1.4e-14),
    (1.0, 149.0, 1.0 / (150.0 * 151.0), 1.7e-14),
    (1.0, 170.5, 1.0 / (171.5 * 172.5), 7e-14),
])
def test_weight_mass_at_large_exponents(a, b, exact, rtol):
    res = quad_endpoint_singular(lambda u: 1.0, a, b)
    assert math.isclose(res.value, exact, rel_tol=rtol)
