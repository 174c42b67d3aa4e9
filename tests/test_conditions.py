"""The validity conditions against the integrals that define them.

operators derives each family's conditions from its defining integral: the
order and every numerator gamma argument of that integral's image must be
positive. For each family and each derived condition this gate takes a
point just inside it and a point just outside it, every other condition
held with room to spare:

- inside, the image must equal quadrature of the defining integral
  (integral families) or the derivative composition (derivative families);
- outside, power_image must refuse the point and name exactly that
  condition, and quadrature of the defining integral, where it covers the
  point, must refuse the weight.

The five-parameter integrals have quadrature only on the slices where the
F3 kernel collapses to one 2F1 series (one slice parameter zero). On a
slice the image can cancel a numerator gamma argument against a
denominator one; that condition then does not bind there, and quadrature
accepts the point. CANCELLED names every such condition and slice.
"""

import math
import random

import pytest

from fracimage.errors import DomainError
from fracimage.gammafns import GammaProduct, is_nonpositive_integer
from fracimage.identities import deriv_composition_oracle, monomial_quadrature
from fracimage.operators import (
    FAMILIES,
    Family,
    OperatorSpec,
    _coefficients,
    _defining_integral,
    _label,
    _margins,
    power_image,
    validate_domain,
)

# how far inside or outside a point sits, and the room every other
# condition keeps
STEP, ROOM = 0.0625, 0.25
X = 1.5

# the parameter set to zero for each quadrature slice of the defining
# integral; None where the integral has a single-series kernel everywhere
SLICES = {
    Family.MSM_LEFT_INT: ("alpha_prime", "beta_prime"),
    Family.MSM_RIGHT_INT: ("alpha", "beta"),
    # inner integrals msm-left-int(-alpha_prime, -alpha, ...) and
    # msm-right-int(-alpha_prime, -alpha, -beta_prime, ...)
    Family.MSM_LEFT_DERIV: ("alpha", "beta"),
    Family.MSM_RIGHT_DERIV: ("alpha_prime", "beta_prime"),
}

# (family, condition) -> the slices on which the image cancels the
# condition's gamma argument, so quadrature does not refuse past it
CANCELLED = {
    # Gamma(tau + beta_prime - alpha_prime) / Gamma(tau + beta_prime) at
    # alpha_prime = 0; Gamma(tau) / Gamma(tau + beta_prime) at beta_prime = 0
    (Family.MSM_LEFT_INT, "tau > alpha_prime - beta_prime"): {"alpha_prime"},
    (Family.MSM_LEFT_INT, "tau > 0"): {"beta_prime"},
    # Gamma(tau - beta) over Gamma(tau - beta) at alpha = 0, Gamma(tau) at beta = 0
    (Family.MSM_RIGHT_INT, "tau > beta"): {"alpha", "beta"},
    # the same cancellations on the derivative families' inner integrals
    (Family.MSM_LEFT_DERIV, "tau > beta - alpha"): {"alpha"},
    (Family.MSM_LEFT_DERIV, "tau > 0"): {"beta"},
    (Family.MSM_RIGHT_DERIV, "tau > -beta_prime"): {"alpha_prime", "beta_prime"},
}

# m - gamma with m = max(floor(gamma) + 1, 0) is positive at every gamma
ALWAYS_HOLDS = "gamma < max(floor(gamma) + 1, 0)"


def _cases():
    for family, spec in FAMILIES.items():
        for k, coefficients in enumerate(_coefficients(family)):
            label = _label(family, coefficients)
            for zero in SLICES.get(family, (None,)) if label != ALWAYS_HOLDS else ():
                yield pytest.param(family, k, label, zero,
                                   id=f"{family.value}:{label}:{zero or 'all'}")


def _kernel_ok(op: OperatorSpec) -> bool:
    """Away from the 2F1 kernels quadrature treats apart: polynomial, or with
    an exponent difference near an integer (the logarithmic case)."""
    recipe = FAMILIES[op.family].quadrature
    if recipe.kernel is None:
        return True
    ka, kb, kc = recipe.kernel(*op.params)
    e = kc - ka - kb
    return not (is_nonpositive_integer(ka) or is_nonpositive_integer(kb)
                or abs(e - round(e)) < 0.1)


def _far_from_poles(op: OperatorSpec, tau: float) -> bool:
    """No denominator argument left after cancellation is near a pole."""
    num, den, _ = FAMILIES[op.family].image(*op.params, tau)
    den = GammaProduct(num, den).cancelled().denominator_args
    return all(arg > 0.1 or abs(arg - round(arg)) > 0.1 for arg in den)


def _points(family, k, zero):
    """(inside, outside): parameters and tau with condition k's margin at
    +STEP and -STEP and every other margin above ROOM at both; the
    condition's subject (tau, or its first parameter) is what moves."""
    spec = FAMILIES[family]
    coefficients = _coefficients(family)[k]
    names = ("1", *spec.params, "m", "tau")
    subject = len(names) - 1 if coefficients[-1] else next(
        i for i, c in enumerate(coefficients) if c and i)
    rng = random.Random(f"{family.value}:{k}:{zero}")
    for _ in range(500):
        values = {name: rng.uniform(-1.0, 2.0) for name in spec.params}
        if spec.composition is not None:
            values["gamma"] = rng.uniform(0.1, 2.5)
        if zero is not None:
            values[zero] = 0.0
        values["tau"] = rng.uniform(-1.0, 3.0)
        found = []
        for target in (STEP, -STEP):
            v = dict(values)
            params = tuple(v[name] for name in spec.params)
            c = coefficients[subject]
            rest = _margins(family, params, v["tau"])[k] - c * v[names[subject]]
            v[names[subject]] = (target - rest) / c
            params, tau = tuple(v[name] for name in spec.params), v["tau"]
            margins = _margins(family, params, tau)
            inner, inner_params, _ = _defining_integral(family, params)
            inner_op = OperatorSpec(inner, inner_params)
            if (math.isclose(margins[k], target, abs_tol=1e-12)
                    and all(m > ROOM for i, m in enumerate(margins) if i != k)
                    and _kernel_ok(inner_op) and _far_from_poles(inner_op, tau)
                    and _far_from_poles(OperatorSpec(family, params), tau)):
                found.append((OperatorSpec(family, params), tau))
        if len(found) == 2:
            return found
    raise AssertionError(f"no point found for {family.value} condition {k} on {zero}")


@pytest.mark.parametrize("family, k, label, zero", list(_cases()))
def test_each_condition_is_its_integrals(family, k, label, zero):
    (inside, tau_in), (outside, tau_out) = _points(family, k, zero)
    value = power_image(inside, tau_in).value_at(X)
    if FAMILIES[family].composition is None:
        reference = monomial_quadrature(inside, None, tau_in, X).value
    else:
        reference = deriv_composition_oracle(inside, tau_in, X)
    assert value == pytest.approx(reference, rel=1e-12)

    with pytest.raises(DomainError) as exc:
        power_image(outside, tau_out)
    assert str(exc.value).endswith(f" violates: {label}")
    if FAMILIES[family].composition is not None:
        with pytest.raises(DomainError):
            deriv_composition_oracle(outside, tau_out, X)
    inner, inner_params, _ = _defining_integral(family, outside.params)
    quadrature = lambda: monomial_quadrature(OperatorSpec(inner, inner_params), None,
                                             tau_out, X)
    if zero in CANCELLED.get((family, label), ()):
        assert math.isfinite(quadrature().value)
    else:
        with pytest.raises(DomainError):
            quadrature()


def test_named_conditions_are_derived_ones():
    labels = {(f, _label(f, c)) for f in FAMILIES for c in _coefficients(f)}
    assert set(CANCELLED) <= labels
    derivative = [f for f in FAMILIES if FAMILIES[f].composition is not None]
    assert {(f, ALWAYS_HOLDS) for f in derivative} <= labels
    # the inner integral's order: no gamma violates it, integers included
    for f in derivative:
        for gamma in (0.25, 1.0, 1.999, 2.0, 7.5):
            op = OperatorSpec(f, (0.5, 0.25, 0.5, 0.25, gamma))
            held = {c.label: c.satisfied for c in validate_domain(op, 10.0)}
            assert held[ALWAYS_HOLDS]


@pytest.mark.parametrize("family", list(FAMILIES))
def test_margins_are_affine_in_params_m_and_tau(family):
    # the labels are read off the coefficients, so they say what the margins
    # compute only if the margins are affine in (params, m, tau)
    rng = random.Random(family.value)
    rows = _coefficients(family)
    for _ in range(20):
        params = tuple(rng.uniform(-3.0, 3.0) for _ in FAMILIES[family].params)
        m, tau = rng.randint(0, 4), rng.uniform(-3.0, 3.0)
        rebuilt = [row[0] + sum(c * v for c, v in zip(row[1:], (*params, m, tau)))
                   for row in rows]
        assert rebuilt == pytest.approx(_margins(family, params, tau, m), rel=1e-12, abs=1e-12)
    # and validate_domain reports those margins under those labels
    params = tuple(0.25 * (i + 1) for i in range(len(FAMILIES[family].params)))
    results = validate_domain(OperatorSpec(family, params), 0.5)
    assert [c.label for c in results] == [_label(family, row) for row in rows]
    assert [c.margin for c in results] == _margins(family, params, 0.5)
