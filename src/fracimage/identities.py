"""Closed-form images of power-weighted M_n^(p,q) polynomials.

Each identity tag names one operator family applied to its monomial
convention times a polynomial factor, together with the hypergeometric
closed form of the result:

  tag    operator family   operand                       closed form
  thm1   msm-left-int      t^(tau-1) M_n(t)    x^e 5F4(...; -x)
  thm2   msm-right-int     t^(-tau)  M_n(1/t)  x^e 5F4(...; -1/x)
  thm3   msm-left-deriv    t^(tau-1) M_n(t)    x^e 5F4(...; -x)
  thm4   msm-right-deriv   t^(-tau)  M_n(1/t)  x^e 5F4(...; -1/x)
  cor1   saigo-left        t^(tau-1) M_n(t)    x^e 4F3(...; -x)
  cor2   rl-left           t^(tau-1) M_n(t)    x^e 3F2(...; -x)
  cor3   ek-left           t^(tau-1) M_n(t)    x^e 3F2(...; -x)
  cor4   saigo-right       t^(tau-1) M_n(1/t)  x^e 4F3(...; -1/x)
  cor5   rl-right          t^(tau-1) M_n(1/t)  x^e 3F2(...; -1/x)
  cor6   ek-right          t^(tau-1) M_n(1/t)  x^e 3F2(...; -1/x)

All ten share one structure.  Writing the power image of the family's
monomial convention at order sigma as G(sigma) * x^(e(sigma)), expanding
M_n term by term moves the order by +k (thm1..thm4) or -k (cor4..cor6)
and every gamma argument of G by +k, so the sum collapses to

  (-1)^n * Gamma(q+n+1)/Gamma(q+1) * G(tau) * x^(e(tau))
      * pFq([-n, 1+n-p, <num args of G at tau>];
            [q+1, <den args of G at tau>]; -x or -1/x)

The series terminates at k = n, so the closed form is a finite sum; the
exact finite-sum oracle lhs_oracle sums the same terms without the
hypergeometric rearrangement and must agree to rounding error.

A small number of published statements of these identities circulate
with typos.  The CORRECTIONS table lists every discrepancy this module
adjudicated; the three that change computed values can be reproduced by
passing as_printed=True to image_rhs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, UnsupportedKernelError
from .gammafns import GammaProduct, gamma_product_eval
from .hypergeom import pfq
from .jacobi import PolySpec, _coefficients_exact, m_poly_coefficients, _poly_eval
from .operators import (
    FAMILIES,
    Family,
    OperatorSpec,
    PowerImage,
    msm_left_int,
    msm_right_int,
    power_image,
)
from .quadrature import DEFAULT_CONFIG, QuadConfig, QuadResult, operator_apply

__all__ = [
    "IdentityId",
    "IDENTITY_FAMILY",
    "AS_PRINTED_IDS",
    "ImageEvaluation",
    "Correction",
    "CORRECTIONS",
    "corrections_for",
    "image_rhs",
    "lhs_oracle",
    "deriv_composition_oracle",
    "quadrature_value",
]


class IdentityId(enum.Enum):
    """Stable tags for the ten power-image identities."""

    THM1 = "thm1"
    THM2 = "thm2"
    THM3 = "thm3"
    THM4 = "thm4"
    COR1 = "cor1"
    COR2 = "cor2"
    COR3 = "cor3"
    COR4 = "cor4"
    COR5 = "cor5"
    COR6 = "cor6"


IDENTITY_FAMILY = {
    IdentityId.THM1: Family.MSM_LEFT_INT,
    IdentityId.THM2: Family.MSM_RIGHT_INT,
    IdentityId.THM3: Family.MSM_LEFT_DERIV,
    IdentityId.THM4: Family.MSM_RIGHT_DERIV,
    IdentityId.COR1: Family.SAIGO_LEFT,
    IdentityId.COR2: Family.RL_LEFT,
    IdentityId.COR3: Family.EK_LEFT,
    IdentityId.COR4: Family.SAIGO_RIGHT,
    IdentityId.COR5: Family.RL_RIGHT,
    IdentityId.COR6: Family.EK_RIGHT,
}

# Identities that have an evaluable as-printed variant.
AS_PRINTED_IDS = frozenset({IdentityId.THM1, IdentityId.THM3, IdentityId.COR4})


@dataclass(frozen=True)
class ImageEvaluation:
    """One evaluated closed form, decomposed for inspection.

    value == gamma_product_eval(prefactor).to_float()
             * series_value * x**exponent
    up to rounding (overflow-prone pieces are combined in log space).
    """

    value: float
    prefactor: GammaProduct
    series_value: float
    argument: float
    exponent: float


@dataclass(frozen=True)
class Correction:
    """One adjudicated discrepancy between circulating printed statements
    of an identity and the form every oracle in this package confirms."""

    key: str
    identity: str
    printed: str
    implemented: str
    evaluable: bool


CORRECTIONS: tuple[Correction, ...] = (
    Correction(
        key="thm1-kernel-argument",
        identity="thm1",
        printed=(
            "second numerator gamma argument tau + alpha - alpha_prime - "
            "beta, in the prefactor and in the matching series parameter"
        ),
        implemented=(
            "tau + gamma - alpha - alpha_prime - beta; forced by the exact "
            "finite-sum oracle and by the n = 0 reduction to the bare "
            "power image"
        ),
        evaluable=True,
    ),
    Correction(
        key="thm3-series-denominator",
        identity="thm3",
        printed=(
            "series denominator parameter tau - beta_prime, disagreeing "
            "with the tau - beta printed in the prefactor of the same "
            "statement"
        ),
        implemented=(
            "tau - beta in both places; the series parameters must be the "
            "shifted prefactor arguments for the finite sum to collapse"
        ),
        evaluable=True,
    ),
    Correction(
        key="cor4-alternating-sign",
        identity="cor4",
        printed="prefactor without the (-1)^n factor",
        implemented=(
            "(-1)^n Gamma(q+n+1)/Gamma(q+1) as in every other identity; "
            "the k = 0 oracle term fixes the sign for odd n"
        ),
        evaluable=True,
    ),
    Correction(
        key="cor4-condition-direction",
        identity="cor4",
        printed="validity condition Re(tau) > 1 + min(Re(beta), Re(eta))",
        implemented=(
            "tau < 1 + min(beta, eta); the right-sided integral converges "
            "for small tau, not large, and the underlying power-image "
            "condition has the same direction"
        ),
        evaluable=False,
    ),
    Correction(
        key="thm2-series-class",
        identity="thm2",
        printed="closed form labelled as a 5Psi4 (Fox-Wright) series",
        implemented=(
            "a terminating 5F4; all argument shifts are by the summation "
            "index itself, so every Fox-Wright weight is 1"
        ),
        evaluable=False,
    ),
    Correction(
        key="thm2-condition-symbol",
        identity="thm2",
        printed=(
            "validity condition containing an undefined symbol "
            "epsilon_prime"
        ),
        implemented=(
            "the right-sided five-parameter image conditions tau > beta, "
            "tau > gamma - alpha - alpha_prime, "
            "tau > gamma - alpha - beta_prime"
        ),
        evaluable=False,
    ),
    Correction(
        key="cor3-condition",
        identity="cor3",
        printed="validity condition Re(tau) > Re(eta)",
        implemented=(
            "tau > max(0, -eta), obtained by specialising the left-sided "
            "five-parameter conditions; tau > eta is neither necessary "
            "nor sufficient"
        ),
        evaluable=False,
    ),
    Correction(
        key="pochhammer-shift",
        identity="all",
        printed="derivations writing the series factor (n - p)_k",
        implemented=(
            "(1 + n - p)_k, the factor binom(p-n-1, k) actually expands "
            "to; the printed form breaks the k = 1 term of every identity"
        ),
        evaluable=False,
    ),
    Correction(
        key="ode-eigenvalue",
        identity="mpoly",
        printed=(
            "differential equation x(1+x) y'' + ((2-p)x + 1 + q) y' = "
            "n(n - 1 + p) y"
        ),
        implemented=(
            "eigenvalue n(n + 1 - p); the printed value leaves a nonzero "
            "residual already at n = 1"
        ),
        evaluable=False,
    ),
)


def corrections_for(identity: IdentityId) -> tuple[Correction, ...]:
    return tuple(
        c
        for c in CORRECTIONS
        if c.identity == identity.value or c.identity == "all"
    )


def _make_operator(identity: IdentityId, op_params) -> OperatorSpec:
    return OperatorSpec(IDENTITY_FAMILY[identity], tuple(float(v) for v in op_params))


def _printed_image(identity: IdentityId, op: OperatorSpec, tau: float) -> PowerImage:
    """Power image with the as-printed gamma schema (thm1 only; the other
    printed variants leave the prefactor untouched)."""
    if identity is IdentityId.THM1:
        a, ap, b, bp, g = op.params
        gp = GammaProduct(
            (tau, tau + a - ap - b, tau + bp - ap),
            (tau + bp, tau + g - a - ap, tau + g - ap - b),
        )
        return PowerImage(gp, tau - a - ap + g - 1.0)
    return power_image(op, tau, validate=False)


def image_rhs(
    identity: IdentityId,
    op_params,
    poly: PolySpec,
    tau: float,
    x: float,
    as_printed: bool = False,
) -> ImageEvaluation:
    """Closed-form right-hand side of one identity at (tau, x).

    The operator's power-image validity conditions are checked at the
    base order tau.  With as_printed=True the three identities that
    circulate with value-changing typos (thm1, thm3, cor4) are evaluated
    exactly as printed; for every other identity the flag is a no-op.
    """
    if x <= 0.0:
        raise DomainError(f"need x > 0, got {x!r}", conditions=("x > 0",))
    op = _make_operator(identity, op_params)
    power_image(op, tau)  # domain check at the base order
    img = (
        _printed_image(identity, op, tau)
        if as_printed
        else power_image(op, tau, validate=False)
    )

    series_num = (-float(poly.n), 1.0 + poly.n - poly.p) + tuple(
        img.prefactor.numerator_args
    )
    series_den = (poly.q + 1.0,) + tuple(img.prefactor.denominator_args)
    if as_printed and identity is IdentityId.THM3:
        a, ap, b, bp, g = op.params
        # printed series denominator uses tau - beta_prime in place of
        # the prefactor's tau - beta
        series_den = (
            poly.q + 1.0,
            tau - bp,
            tau + a + ap - g,
            tau + a + bp - g,
        )

    argument = -1.0 / x if FAMILIES[op.family].right else -x
    series_value = pfq(series_num, series_den, argument)

    sign = -1 if poly.n % 2 else 1
    if as_printed and identity is IdentityId.COR4:
        sign = 1
    poly_factor = GammaProduct((poly.q + poly.n + 1.0,), (poly.q + 1.0,), sign)
    prefactor = poly_factor * img.prefactor
    base = gamma_product_eval(prefactor).times_power(x, img.exponent)
    return ImageEvaluation(
        value=base.to_float() * series_value,
        prefactor=prefactor,
        series_value=series_value,
        argument=argument,
        exponent=img.exponent,
    )


def lhs_oracle(
    identity: IdentityId,
    op_params,
    poly: PolySpec,
    tau: float,
    x: float,
) -> float:
    """Exact finite-sum left-hand side of one identity.

    Expands M_n into its monomial coefficients and sums the shifted
    power images term by term, never forming the hypergeometric series.
    Every shifted order tau +/- k must satisfy the image conditions.

    The alternating sum can cancel five or more digits, so the terms are
    kept exact: the coefficients are rationals, each shifted image is
    the base image times an exact Pochhammer ratio (the gamma
    recurrence), and the only rounding happens in the one base gamma
    evaluation and the final conversion."""
    if x <= 0.0:
        raise DomainError(f"need x > 0, got {x!r}", conditions=("x > 0",))
    op = _make_operator(identity, op_params)
    spec = FAMILIES[op.family]
    # t^k against t^(tau-1) or t^(-tau) raises the order; 1/t^k (operand
    # M_n(1/t), right-sided) against t^(tau-1) lowers it
    shift = -1 if spec.right and not spec.negative_power else 1
    base = power_image(op, tau)
    for k in range(1, poly.n + 1):
        power_image(op, tau + shift * k)  # conditions and poles at each order
    num = [Fraction(arg) for arg in base.prefactor.numerator_args]
    den = [Fraction(arg) for arg in base.prefactor.denominator_args]
    # every gamma argument moves by +k under the order shift, and the
    # output power moves with the operand's own power of t
    power_step = 1 / Fraction(x) if spec.right else Fraction(x)
    total = Fraction(0)
    ratio = Fraction(1)
    power = Fraction(1)
    for k, c in enumerate(_coefficients_exact(poly)):
        total += c * ratio * power
        power *= power_step
        for arg in num:
            ratio *= arg + k
        for arg in den:
            ratio /= arg + k
    scale = gamma_product_eval(base.prefactor).times_power(x, base.exponent)
    return scale.to_float() * float(total)


def deriv_composition_oracle(side: str, msm_params, tau: float, x: float) -> float:
    """Five-parameter derivative operator on its monomial convention,
    computed the long way: inner integral image, then m-fold monomial
    differentiation.

    side="left":  (d/dx)^m  applied to the left integral image with
                  parameters (-a', -a, -b'+m, -b, m-g), m = floor(g)+1,
                  acting on t^(tau-1)
    side="right": (-d/dx)^m applied to the right integral image with
                  parameters (-a', -a, -b', -b+m, m-g), acting on t^(-tau)

    Must agree with power_image of the matching derivative family."""
    a, ap, b, bp, g = (float(v) for v in msm_params)
    if g <= 0.0:
        raise DomainError(
            f"derivative composition needs gamma > 0, got {g!r}",
            conditions=("gamma > 0",),
        )
    m = math.floor(g) + 1
    if side == "left":
        inner = msm_left_int(-ap, -a, -bp + m, -b, m - g)
        mirror = 1.0
    elif side == "right":
        inner = msm_right_int(-ap, -a, -bp, -b + m, m - g)
        mirror = (-1.0) ** m
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    img = power_image(inner, tau)
    s = img.exponent
    falling = 1.0
    for j in range(m):
        falling *= s - j
    base = gamma_product_eval(img.prefactor).times_power(x, s - m)
    return mirror * falling * base.to_float()


def quadrature_value(
    identity: IdentityId,
    op_params,
    poly: PolySpec,
    tau: float,
    x: float,
    cfg: QuadConfig = DEFAULT_CONFIG,
) -> QuadResult | None:
    """Direct numerical evaluation of one identity's left-hand side.

    Returns None when the family (or the parameter slice) has no
    supported quadrature kernel: the derivative families always, the
    five-parameter integral families outside their single-series slices.
    """
    spec = FAMILIES[IDENTITY_FAMILY[identity]]
    if spec.quadrature is None:
        return None
    op = _make_operator(identity, op_params)
    coeffs = m_poly_coefficients(poly)
    power, right = spec.monomial_power(tau), spec.right

    def f(t: float) -> float:
        return t**power * _poly_eval(coeffs, 1.0 / t if right else t)

    hint = "power_at_inf" if right else "power_at_zero"
    try:
        return operator_apply(op, f, x, cfg, **{hint: power})
    except UnsupportedKernelError:
        return None
