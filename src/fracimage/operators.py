"""Fractional integral and derivative operator families and their exact
power-function images.

Ten families are covered: the five-parameter generalized operators with a
third-Appell-function kernel (left/right, integral/derivative), the Saigo
operators with a Gauss 2F1 kernel, and their Riemann-Liouville and
Erdelyi-Kober specializations. Each family maps a pure power of t to a
gamma-factor prefactor times a power of x; the prefactor is returned as a
symbolic GammaProduct so downstream checks can compare argument multisets
exactly instead of comparing rounded floats. FAMILIES states everything
that distinguishes one family from another, once per family.

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
from .gammafns import (
    GammaProduct,
    SignedLogValue,
    gamma_product_eval,
    is_nonpositive_integer,
)


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
    t = x*u (left-sided) or t = x/u (right-sided) and s the operand's power
    at 0 or at infinity, it is x^x_power / Gamma(order) times
    int_0^1 u^u_power (1-u)^(order-1) 2F1(kernel; 1-u) f(t) t^(-s) du, the
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
    order; conditions and image of (*params, tau), as (label, margin) pairs
    and as (numerator args, denominator args, exponent of x); quadrature,
    None for the derivative families; right-sidedness; and negative_power,
    the monomial t^(-tau) in place of t^(tau-1)."""

    params: tuple[str, ...]
    symbols: tuple[str, ...]
    conditions: Callable[..., tuple[tuple[str, float], ...]]
    image: Callable[..., tuple[tuple[float, ...], tuple[float, ...], float]]
    quadrature: QuadRecipe | None
    right: bool = False
    negative_power: bool = False

    def monomial_power(self, tau: float) -> float:
        """Exponent of the monomial the family's images are stated for."""
        return -tau if self.negative_power else tau - 1.0


_FIVE_NAMES = ("alpha", "alpha_prime", "beta", "beta_prime", "gamma")
_FIVE_LETTERS = ("delta", "delta_prime", "mu", "mu_prime", "epsilon")
_SAIGO_NAMES, _SAIGO_LETTERS = ("alpha", "beta", "eta"), ("delta", "mu", "epsilon")

FAMILIES: dict[Family, FamilySpec] = {
    Family.MSM_LEFT_INT: FamilySpec(
        _FIVE_NAMES, _FIVE_LETTERS,
        conditions=lambda a, ap, b, bp, g, tau: (
            ("gamma > 0", g),
            ("tau > 0", tau),
            ("tau > alpha - alpha_prime - beta - gamma (as printed)",
             tau - (a - ap - b - g)),
            ("tau > alpha + alpha_prime + beta - gamma (corrected)",
             tau - (a + ap + b - g)),
            ("tau > alpha_prime - beta_prime", tau - (ap - bp)),
        ),
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
        conditions=lambda a, ap, b, bp, g, tau: (
            ("gamma > 0", g),
            ("tau > beta", tau - b),
            ("tau > gamma - alpha - alpha_prime", tau - (g - a - ap)),
            ("tau > gamma - alpha - beta_prime", tau - (g - a - bp)),
        ),
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
        conditions=lambda a, ap, b, bp, g, tau: (
            ("tau > 0", tau),
            ("tau > beta - alpha", tau - (b - a)),
            ("tau > gamma - alpha - alpha_prime - beta", tau - (g - a - ap - b)),
        ),
        image=lambda a, ap, b, bp, g, tau: (
            (tau, tau + a - b, tau + a + ap + bp - g),
            (tau - b, tau + a + ap - g, tau + a + bp - g),
            a + ap - g + tau - 1.0,
        ),
        quadrature=None,
    ),
    Family.MSM_RIGHT_DERIV: FamilySpec(
        _FIVE_NAMES, _FIVE_LETTERS, right=True, negative_power=True,
        conditions=lambda a, ap, b, bp, g, tau: (
            ("tau > -beta_prime", tau + bp),
            ("tau > alpha_prime + beta - gamma", tau - (ap + b - g)),
            ("tau > alpha + alpha_prime - gamma + floor(gamma) + 1",
             tau - (a + ap - g + math.floor(g) + 1.0)),
        ),
        image=lambda a, ap, b, bp, g, tau: (
            (tau + bp, tau - a - ap + g, tau - ap - b + g),
            (tau, tau - ap + bp, tau - a - ap - b + g),
            a + ap - g - tau,
        ),
        quadrature=None,
    ),
    Family.SAIGO_LEFT: FamilySpec(
        _SAIGO_NAMES, _SAIGO_LETTERS,
        conditions=lambda a, b, e, tau: (
            ("alpha > 0", a), ("tau > 0", tau), ("tau > beta - eta", tau - (b - e)),
        ),
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
        conditions=lambda a, b, e, tau: (
            ("alpha > 0", a),
            ("tau < 1 + beta", 1.0 + b - tau),
            ("tau < 1 + eta", 1.0 + e - tau),
        ),
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
        conditions=lambda a, tau: (("alpha > 0", a), ("tau > 0", tau)),
        image=lambda a, tau: ((tau,), (tau + a,), tau + a - 1.0),
        quadrature=QuadRecipe(
            "alpha", u_power=lambda a, s: s, x_power=lambda a, s: a + s
        ),
    ),
    Family.RL_RIGHT: FamilySpec(
        ("alpha",), ("delta",), right=True,
        conditions=lambda a, tau: (
            ("alpha > 0", a), ("tau < 1 - alpha", 1.0 - a - tau),
        ),
        image=lambda a, tau: ((1.0 - a - tau,), (1.0 - tau,), tau + a - 1.0),
        quadrature=QuadRecipe(
            "alpha", u_power=lambda a, s: -a - s - 1.0, x_power=lambda a, s: a + s
        ),
    ),
    Family.EK_LEFT: FamilySpec(
        ("eta", "alpha"), ("epsilon", "delta"),
        conditions=lambda e, a, tau: (
            ("alpha > 0", a), ("tau > 0", tau), ("tau > -eta", tau + e),
        ),
        image=lambda e, a, tau: ((tau + e,), (tau + a + e,), tau - 1.0),
        quadrature=QuadRecipe(
            "alpha", u_power=lambda e, a, s: e + s, x_power=lambda e, a, s: s
        ),
    ),
    Family.EK_RIGHT: FamilySpec(
        ("eta", "alpha"), ("epsilon", "delta"), right=True,
        conditions=lambda e, a, tau: (
            ("alpha > 0", a), ("tau < 1", 1.0 - tau), ("tau < 1 + eta", 1.0 + e - tau),
        ),
        image=lambda e, a, tau: ((e - tau + 1.0,), (a + e - tau + 1.0,), tau - 1.0),
        quadrature=QuadRecipe(
            "alpha", u_power=lambda e, a, s: e - s - 1.0, x_power=lambda e, a, s: s
        ),
    ),
}


@dataclass(frozen=True)
class OperatorSpec:
    """An operator family plus its real parameter tuple."""

    family: Family
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        expected = len(FAMILIES[self.family].params)
        if len(self.params) != expected:
            raise ValueError(
                f"{self.family.value} takes {expected} parameters, "
                f"got {len(self.params)}"
            )

    def named_params(self) -> dict[str, float]:
        return dict(zip(FAMILIES[self.family].params, self.params))

    def describe(self) -> str:
        inner = ", ".join(
            f"{k}={v:g}" for k, v in self.named_params().items()
        )
        return f"{self.family.value}({inner})"


def _operator(family: Family, *values) -> OperatorSpec:
    return OperatorSpec(family, tuple(float(v) for v in values))


def msm_left_int(alpha, alpha_prime, beta, beta_prime, gamma) -> OperatorSpec:
    return _operator(Family.MSM_LEFT_INT, alpha, alpha_prime, beta, beta_prime, gamma)


def msm_right_int(alpha, alpha_prime, beta, beta_prime, gamma) -> OperatorSpec:
    return _operator(Family.MSM_RIGHT_INT, alpha, alpha_prime, beta, beta_prime, gamma)


def msm_left_deriv(alpha, alpha_prime, beta, beta_prime, gamma) -> OperatorSpec:
    return _operator(Family.MSM_LEFT_DERIV, alpha, alpha_prime, beta, beta_prime, gamma)


def msm_right_deriv(alpha, alpha_prime, beta, beta_prime, gamma) -> OperatorSpec:
    return _operator(
        Family.MSM_RIGHT_DERIV, alpha, alpha_prime, beta, beta_prime, gamma
    )


def saigo_left(alpha, beta, eta) -> OperatorSpec:
    return _operator(Family.SAIGO_LEFT, alpha, beta, eta)


def saigo_right(alpha, beta, eta) -> OperatorSpec:
    return _operator(Family.SAIGO_RIGHT, alpha, beta, eta)


def rl_left(alpha) -> OperatorSpec:
    return _operator(Family.RL_LEFT, alpha)


def rl_right(alpha) -> OperatorSpec:
    return _operator(Family.RL_RIGHT, alpha)


def ek_left(eta, alpha) -> OperatorSpec:
    return _operator(Family.EK_LEFT, eta, alpha)


def ek_right(eta, alpha) -> OperatorSpec:
    return _operator(Family.EK_RIGHT, eta, alpha)


@dataclass(frozen=True)
class ConditionResult:
    """One validity inequality, with margin > 0 iff strictly satisfied."""

    label: str
    satisfied: bool
    margin: float


def validate_domain(op: OperatorSpec, tau: float) -> list[ConditionResult]:
    """Validity inequalities for power_image(op, tau), each with its margin.

    For the five-parameter left integral the third condition exists in two
    printed variants that disagree (see the discrepancy registry); both are
    reported and both bind."""
    pairs = FAMILIES[op.family].conditions(*op.params, tau)
    return [ConditionResult(label, margin > 0.0, margin) for label, margin in pairs]


@dataclass(frozen=True)
class PowerImage:
    """Closed-form image: prefactor (symbolic gamma product) times
    x^exponent."""

    prefactor: GammaProduct
    exponent: float

    def prefactor_value(self) -> float:
        return gamma_product_eval(self.prefactor).to_float()

    def signed_log_at(self, x: float) -> SignedLogValue:
        return gamma_product_eval(self.prefactor).times_power(x, self.exponent)

    def value_at(self, x: float) -> float:
        return self.signed_log_at(x).to_float()


def power_image(op: OperatorSpec, tau: float, validate: bool = True) -> PowerImage:
    """Image of the family's monomial convention under op, as an exact
    gamma-product prefactor and the output exponent.

    With validate=True (default) every validity inequality must hold
    strictly, otherwise DomainError names the violated ones. The prefactor
    is kept uncancelled so its argument schema stays visible; any pole that
    survives exact cancellation raises PoleError eagerly here."""
    if validate:
        failed = [c for c in validate_domain(op, tau) if not c.satisfied]
        if failed:
            raise DomainError(
                f"{op.describe()} at tau={tau!r} violates: "
                + "; ".join(c.label for c in failed),
                conditions=tuple(c.label for c in failed),
            )
    num, den, exponent = FAMILIES[op.family].image(*op.params, tau)
    gp = GammaProduct(tuple(num), tuple(den))
    reduced = gp.cancelled()
    for side, args in (
        ("numerator", reduced.numerator_args),
        ("denominator", reduced.denominator_args),
    ):
        for arg in args:
            if is_nonpositive_integer(arg):
                raise PoleError(
                    f"{op.describe()} image at tau={tau!r} has a gamma pole "
                    f"at {arg!r} in the {side}",
                    argument=arg,
                    side=side,
                )
    return PowerImage(gp, exponent)


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
