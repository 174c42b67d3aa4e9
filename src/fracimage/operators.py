"""Fractional integral and derivative operator families and their exact
power-function images.

Ten families are covered: the five-parameter generalized operators with a
third-Appell-function kernel (left/right, integral/derivative), the Saigo
operators with a Gauss 2F1 kernel, and their Riemann-Liouville and
Erdelyi-Kober specializations. Each family maps a pure power of t to a
gamma-factor prefactor times a power of x; the prefactor is returned as a
symbolic GammaProduct, beside its value, so downstream checks can compare
argument multisets exactly instead of comparing rounded floats. FAMILIES
states everything that distinguishes one family from another, once per
family: names, image, the defining integral (QuadRecipe) of an integral
family, and the composition that defines a derivative family through an
integral one. The validity conditions are derived: an operator exists
where its defining integral's order and image numerator arguments are
positive.

Monomial conventions (negative_power in FAMILIES): left-sided families act
on t^(tau-1); the generalized right-sided families act on t^(-tau); the
Saigo/RL/EK right-sided families act on t^(tau-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .errors import DomainError, PoleError
from .gammafns import GammaProduct, SignedLogValue, gamma_product_eval


class Family(str, Enum):
    MSM_LEFT_INT = "msm-left-int"
    MSM_RIGHT_INT = "msm-right-int"
    MSM_LEFT_DERIV = "msm-left-deriv"
    MSM_RIGHT_DERIV = "msm-right-deriv"
    SAIGO_LEFT = "saigo-left"
    SAIGO_RIGHT = "saigo-right"
    RL_LEFT = "rl-left"
    RL_RIGHT = "rl-right"
    EK_LEFT = "ek-left"
    EK_RIGHT = "ek-right"


@dataclass(frozen=True)
class QuadRecipe:
    """A family's defining integral, read from the integral alone: with
    t = x*u (left-sided) or t = x/u (right-sided) and the operand
    t^s g(t), s its power at 0 or at infinity, it is x^x_power / Gamma(order)
    times int_0^1 u^u_power (1-u)^(order-1) 2F1(kernel; 1-u) g(t) du, the
    2F1 factor omitted without a kernel. kernel takes the parameters,
    u_power and x_power the parameters and s. single_series = (a, b): the
    kernel is evaluable only where a = 0 or b = 0."""

    order: str
    u_power: Callable[..., float]
    x_power: Callable[..., float]
    kernel: Callable[..., tuple[float, float, float]] | None = None
    single_series: tuple[str, str] | None = None


@dataclass(frozen=True)
class FamilySpec:
    """One operator family: API names and CLI flag/grid letters in tuple
    order; image of (*params, tau), as (numerator args, denominator args,
    exponent of x), each affine in (*params, tau); quadrature,
    None for the derivative families; right-sidedness; negative_power, the
    monomial t^(-tau) in place of t^(tau-1); and composition, set on the
    derivative families only: (inner integral family, map from (*params, m)
    to its parameters), the operator being (d/dx)^m (left) or (-d/dx)^m
    (right) of that integral, m = max(floor(gamma) + 1, 0)."""

    params: tuple[str, ...]
    symbols: tuple[str, ...]
    image: Callable[..., tuple[tuple[float, ...], tuple[float, ...], float]]
    quadrature: QuadRecipe | None
    right: bool = False
    negative_power: bool = False
    composition: tuple[Family, Callable[..., tuple[float, ...]]] | None = None

    def monomial_power(self, tau: float) -> float:
        """Exponent of the monomial the family's images are stated for."""
        return -tau if self.negative_power else tau - 1.0


_FIVE_NAMES = ("alpha", "alpha_prime", "beta", "beta_prime", "gamma")
_FIVE_LETTERS = ("delta", "delta_prime", "mu", "mu_prime", "epsilon")
_SAIGO_NAMES, _SAIGO_LETTERS = ("alpha", "beta", "eta"), ("delta", "mu", "epsilon")

FAMILIES: dict[Family, FamilySpec] = {
    Family.MSM_LEFT_INT: FamilySpec(
        _FIVE_NAMES, _FIVE_LETTERS,
        image=lambda a, ap, b, bp, g, tau: (
            (tau, tau + g - a - ap - b, tau + bp - ap),
            (tau + bp, tau + g - a - ap, tau + g - ap - b),
            tau - a - ap + g - 1.0,
        ),
        quadrature=QuadRecipe(
            "gamma",
            u_power=lambda a, ap, b, bp, g, s: s - ap,
            x_power=lambda a, ap, b, bp, g, s: g - a - ap + s,
            kernel=lambda a, ap, b, bp, g: (a, b, g),
            single_series=("alpha_prime", "beta_prime"),
        ),
    ),
    Family.MSM_RIGHT_INT: FamilySpec(
        _FIVE_NAMES, _FIVE_LETTERS, right=True, negative_power=True,
        image=lambda a, ap, b, bp, g, tau: (
            (tau - b, a + ap - g + tau, a + bp - g + tau),
            (tau, a - b + tau, a + ap + bp - g + tau),
            -a - ap + g - tau,
        ),
        # the surviving series is in the unbounded argument 1 - t/x; the
        # Pfaff transformation maps it onto 1 - x/t and shifts the power
        # weight by alpha_prime
        quadrature=QuadRecipe(
            "gamma",
            u_power=lambda a, ap, b, bp, g, s: a + ap - s - g - 1.0,
            x_power=lambda a, ap, b, bp, g, s: g - a - ap + s,
            kernel=lambda a, ap, b, bp, g: (ap, g - bp, g),
            single_series=("alpha", "beta"),
        ),
    ),
    Family.MSM_LEFT_DERIV: FamilySpec(
        _FIVE_NAMES, _FIVE_LETTERS,
        image=lambda a, ap, b, bp, g, tau: (
            (tau, tau + a - b, tau + a + ap + bp - g),
            (tau - b, tau + a + ap - g, tau + a + bp - g),
            a + ap - g + tau - 1.0,
        ),
        quadrature=None,
        composition=(Family.MSM_LEFT_INT,
                     lambda a, ap, b, bp, g, m: (-ap, -a, -bp + m, -b, m - g)),
    ),
    Family.MSM_RIGHT_DERIV: FamilySpec(
        _FIVE_NAMES, _FIVE_LETTERS, right=True, negative_power=True,
        image=lambda a, ap, b, bp, g, tau: (
            (tau + bp, tau - a - ap + g, tau - ap - b + g),
            (tau, tau - ap + bp, tau - a - ap - b + g),
            a + ap - g - tau,
        ),
        quadrature=None,
        composition=(Family.MSM_RIGHT_INT,
                     lambda a, ap, b, bp, g, m: (-ap, -a, -bp, -b + m, m - g)),
    ),
    Family.SAIGO_LEFT: FamilySpec(
        _SAIGO_NAMES, _SAIGO_LETTERS,
        image=lambda a, b, e, tau: (
            (tau, tau + e - b), (tau - b, tau + e + a), tau - b - 1.0,
        ),
        quadrature=QuadRecipe(
            "alpha",
            u_power=lambda a, b, e, s: s,
            x_power=lambda a, b, e, s: s - b,
            kernel=lambda a, b, e: (a + b, -e, a),
        ),
    ),
    Family.SAIGO_RIGHT: FamilySpec(
        _SAIGO_NAMES, _SAIGO_LETTERS, right=True,
        image=lambda a, b, e, tau: (
            (b - tau + 1.0, e - tau + 1.0),
            (1.0 - tau, a + b + e - tau + 1.0),
            tau - b - 1.0,
        ),
        quadrature=QuadRecipe(
            "alpha",
            u_power=lambda a, b, e, s: b - s - 1.0,
            x_power=lambda a, b, e, s: s - b,
            kernel=lambda a, b, e: (a + b, -e, a),
        ),
    ),
    Family.RL_LEFT: FamilySpec(
        ("alpha",), ("delta",),
        image=lambda a, tau: ((tau,), (tau + a,), tau + a - 1.0),
        quadrature=QuadRecipe(
            "alpha", u_power=lambda a, s: s, x_power=lambda a, s: a + s
        ),
    ),
    Family.RL_RIGHT: FamilySpec(
        ("alpha",), ("delta",), right=True,
        image=lambda a, tau: ((1.0 - a - tau,), (1.0 - tau,), tau + a - 1.0),
        quadrature=QuadRecipe(
            "alpha", u_power=lambda a, s: -a - s - 1.0, x_power=lambda a, s: a + s
        ),
    ),
    Family.EK_LEFT: FamilySpec(
        ("eta", "alpha"), ("epsilon", "delta"),
        image=lambda e, a, tau: ((tau + e,), (tau + a + e,), tau - 1.0),
        quadrature=QuadRecipe(
            "alpha", u_power=lambda e, a, s: e + s, x_power=lambda e, a, s: s
        ),
    ),
    Family.EK_RIGHT: FamilySpec(
        ("eta", "alpha"), ("epsilon", "delta"), right=True,
        image=lambda e, a, tau: ((e - tau + 1.0,), (a + e - tau + 1.0,), tau - 1.0),
        quadrature=QuadRecipe(
            "alpha", u_power=lambda e, a, s: e - s - 1.0, x_power=lambda e, a, s: s
        ),
    ),
}


@dataclass(frozen=True)
class OperatorSpec:
    """An operator family plus its real parameters, stored as a float tuple."""

    family: Family
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(map(float, self.params)))
        expected = len(FAMILIES[self.family].params)
        if len(self.params) != expected:
            raise ValueError(
                f"{self.family.value} takes {expected} parameters, "
                f"got {len(self.params)}"
            )
        if not all(map(math.isfinite, self.params)):
            raise DomainError(f"{self.family.value} parameters must be finite, got {self.params!r}")

    def named_params(self) -> dict[str, float]:
        return dict(zip(FAMILIES[self.family].params, self.params))

    def describe(self) -> str:
        inner = ", ".join(
            f"{k}={v:g}" for k, v in self.named_params().items()
        )
        return f"{self.family.value}({inner})"


def msm_left_int(alpha, alpha_prime, beta, beta_prime, gamma) -> OperatorSpec:
    return OperatorSpec(Family.MSM_LEFT_INT, (alpha, alpha_prime, beta, beta_prime, gamma))


def msm_right_int(alpha, alpha_prime, beta, beta_prime, gamma) -> OperatorSpec:
    return OperatorSpec(Family.MSM_RIGHT_INT, (alpha, alpha_prime, beta, beta_prime, gamma))


def msm_left_deriv(alpha, alpha_prime, beta, beta_prime, gamma) -> OperatorSpec:
    return OperatorSpec(Family.MSM_LEFT_DERIV, (alpha, alpha_prime, beta, beta_prime, gamma))


def msm_right_deriv(alpha, alpha_prime, beta, beta_prime, gamma) -> OperatorSpec:
    return OperatorSpec(Family.MSM_RIGHT_DERIV, (alpha, alpha_prime, beta, beta_prime, gamma))


def saigo_left(alpha, beta, eta) -> OperatorSpec:
    return OperatorSpec(Family.SAIGO_LEFT, (alpha, beta, eta))


def saigo_right(alpha, beta, eta) -> OperatorSpec:
    return OperatorSpec(Family.SAIGO_RIGHT, (alpha, beta, eta))


def rl_left(alpha) -> OperatorSpec:
    return OperatorSpec(Family.RL_LEFT, (alpha,))


def rl_right(alpha) -> OperatorSpec:
    return OperatorSpec(Family.RL_RIGHT, (alpha,))


def ek_left(eta, alpha) -> OperatorSpec:
    return OperatorSpec(Family.EK_LEFT, (eta, alpha))


def ek_right(eta, alpha) -> OperatorSpec:
    return OperatorSpec(Family.EK_RIGHT, (eta, alpha))


@dataclass(frozen=True)
class ConditionResult:
    """One validity inequality, with margin > 0 iff strictly satisfied."""

    label: str
    satisfied: bool
    margin: float


def _defining_integral(family: Family, params: tuple, m: float | None = None):
    """(integral family, parameters, m): family itself and m = 0, or a derivative
    family's composition integral at m = max(floor(gamma) + 1, 0) or the m given."""
    composition = FAMILIES[family].composition
    if composition is None:
        return family, params, 0
    if m is None:
        m = max(math.floor(params[FAMILIES[family].params.index("gamma")]) + 1, 0)
    inner, inner_params = composition
    return inner, inner_params(*params, m), m


def _margins(family: Family, params: tuple, tau: float, m: float | None = None) -> list:
    """The defining integral's order and its image's numerator gamma
    arguments at (params, tau): the integral exists where all are positive."""
    inner, params, _ = _defining_integral(family, params, m)
    spec = FAMILIES[inner]
    return [params[spec.params.index(spec.quadrature.order)], *spec.image(*params, tau)[0]]


def _coefficients(family: Family) -> list[list[float]]:
    """Each margin of family as its affine coefficients over (1, *params, m,
    tau), read off at 0 and at each unit vector."""
    size = len(FAMILIES[family].params) + 2
    points = [[float(i == j) for j in range(size)] for i in range(-1, size)]
    values = [_margins(family, tuple(v[:-2]), v[-1], v[-2]) for v in points]
    return [[c0, *(v[k] - c0 for v in values[1:])] for k, c0 in enumerate(values[0])]


def _label(family: Family, coefficients: list[float]) -> str:
    """'subject > bound' or '<': the subject is tau where the margin holds it,
    else its first parameter; positive terms of the bound come first and
    its term in m, max(floor(gamma) + 1, 0), last."""
    names = ("", *FAMILIES[family].params, "max(floor(gamma) + 1, 0)", "tau")
    subject = len(names) - 1 if coefficients[-1] else next(
        i for i, c in enumerate(coefficients) if c and i)
    scale, bound = -coefficients[subject], ""
    terms = [(c / scale, name) for i, (c, name) in enumerate(zip(coefficients, names))
             if c and i != subject]
    for c, name in sorted(terms, key=lambda t: (t[1] == names[-2], t[0] < 0)):
        name = f"({name})" if " " in name and c != 1 else name
        word = name if abs(c) == 1 and name else f"{abs(c):g}*{name}".rstrip("*")
        bound += (f" {'-+'[c > 0]} " if bound else "-" if c < 0 else "") + word
    return f"{names[subject]} {'<>'[scale < 0]} {bound or 0}"


def validate_domain(op: OperatorSpec, tau: float) -> list[ConditionResult]:
    """Validity inequalities for power_image(op, tau), one per margin of its
    defining integral, each with that margin. A printed condition that
    differs is a CORRECTIONS entry of its identity and never binds."""
    margins = _margins(op.family, op.params, tau)
    return [ConditionResult(_label(op.family, c), margin > 0.0, margin)
            for c, margin in zip(_coefficients(op.family), margins)]


@dataclass(frozen=True)
class PowerImage:
    """Closed-form image: prefactor (symbolic gamma product) times
    x^exponent, with the prefactor's value, evaluated once."""

    prefactor: GammaProduct
    exponent: float
    evaluated: SignedLogValue

    def prefactor_value(self) -> float:
        return self.evaluated.to_float()

    def value_at(self, x: float) -> float:
        if not 0.0 < x < math.inf:
            raise DomainError(f"need x > 0 and finite, got {x!r}")
        return self.evaluated.times_power(x, self.exponent).to_float()


def power_image(op: OperatorSpec, tau: float) -> PowerImage:
    """Image of the family's monomial convention under op, as an exact
    gamma-product prefactor, its value and the output exponent.

    Every validity inequality must hold strictly, otherwise DomainError
    names the violated ones. The prefactor is kept uncancelled so its
    argument schema stays visible; any pole that survives exact
    cancellation raises here, as gamma_product_eval names it."""
    if not math.isfinite(tau):
        raise DomainError(f"{op.describe()} needs a finite tau, got {tau!r}")
    if not all(margin > 0.0 for margin in _margins(op.family, op.params, tau)):
        failed = [c.label for c in validate_domain(op, tau) if not c.satisfied]
        raise DomainError(f"{op.describe()} at tau={tau!r} violates: " + "; ".join(failed))
    num, den, exponent = FAMILIES[op.family].image(*op.params, tau)
    gp = GammaProduct(tuple(num), tuple(den))
    try:
        return PowerImage(gp, exponent, gamma_product_eval(gp))
    except PoleError as exc:
        raise type(exc)(f"{op.describe()} image at tau={tau!r}: {exc}") from None


def saigo_left_as_msm(alpha: float, beta: float, eta: float) -> OperatorSpec:
    """Five-parameter left operator equal to saigo_left(alpha, beta, eta):
    parameters (alpha+beta, 0, -eta, 0, alpha). Images agree at the same
    tau."""
    return msm_left_int(alpha + beta, 0.0, -eta, 0.0, alpha)


def saigo_right_as_msm(alpha: float, beta: float, eta: float) -> OperatorSpec:
    """Five-parameter right operator equal to saigo_right(alpha, beta, eta).

    The monomial conventions differ (t^(-tau) vs t^(tau-1)), so images
    agree after the index swap tau -> 1 - tau."""
    return msm_right_int(alpha + beta, 0.0, -eta, 0.0, alpha)
