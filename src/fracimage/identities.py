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

The series terminates at k = n, so the closed form is a finite sum. The
exact oracle lhs_oracle sums the same terms from the defining integral's
image row alone, each differentiated m = max(floor(gamma) + 1, 0) times for
thm3/thm4 by an exact factor on its coefficient, and must agree to rounding
error.

A small number of published statements of these identities circulate
with typos.  The CORRECTIONS table lists every discrepancy this module
adjudicated; the three that change computed values carry the edit that
reproduces the printed form, which image_rhs applies when passed
as_printed=True.

This module is also the verification engine the command line drives.
TAGS describes each verification tag once: its identity (thm1-thm4 and
cor1-cor6 are the paper's identities, lem1-lem6 the bare power image of
one family), its operator family, its default grid and its embedding.
IDENTITY_FAMILY, DEFAULT_GRIDS and ALL_TAGS are views of TAGS.
_evaluate_point judges each closed form against one reference: the exact
oracle from the defining integral (thm/cor; lem5/lem6 without M_n) or
quadrature (lem1-lem4, which also compare the operator with its
five-parameter embedding where TAGS names one: lem3/lem4; a point whose
embedding has no supported quadrature notes that this check did not run).
"""

from __future__ import annotations

import contextlib
import enum
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .errors import (
    ConfigError,
    DomainError,
    NonConvergedError,
    PoleError,
    UnsupportedKernelError,
)
from .gammafns import GammaProduct, check_finite, gamma_product_eval
from .hypergeom import exact_series_sum, pfq
from .jacobi import PolySpec, _coefficients_exact, m_poly_coefficients, _poly_eval
from .operators import (
    FAMILIES,
    Family,
    OperatorSpec,
    _defining_integral,
    power_image,
    saigo_left_as_msm,
    saigo_right_as_msm,
)
from .quadrature import DEFAULT_TOL, QuadResult, operator_apply


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
    of an identity and the form every oracle in this package confirms.
    Where the printed form changes computed values, edit reproduces it in
    image_rhs: (params, tau, num, series_den, sign) -> (num, series_den,
    sign), the closed form's gamma arguments and sign."""

    key: str
    identity: str
    printed: str
    implemented: str
    edit: Callable[..., tuple] | None = None


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
        edit=lambda p, tau, num, den, sign: (
            (num[0], tau + p[0] - p[1] - p[2], *num[2:]), den, sign),
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
        edit=lambda p, tau, num, den, sign: (num, (tau - p[3], *den[1:]), sign),
    ),
    Correction(
        key="cor4-alternating-sign",
        identity="cor4",
        printed="prefactor without the (-1)^n factor",
        implemented=(
            "(-1)^n Gamma(q+n+1)/Gamma(q+1) as in every other identity; "
            "the k = 0 oracle term fixes the sign for odd n"
        ),
        edit=lambda p, tau, num, den, sign: (num, den, 1),
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
    ),
    Correction(
        key="thm1-condition",
        identity="thm1",
        printed="validity condition Re(tau) > Re(alpha - alpha_prime - beta - gamma)",
        implemented=(
            "tau > alpha + alpha_prime + beta - gamma, from the image's numerator "
            "Gamma(tau + gamma - alpha - alpha_prime - beta); the printed bound is "
            "not needed for the integral to exist: (3, -1, 0, 0, 0.5) at tau = 2.5"
        ),
    ),
    Correction(
        key="thm2-series-class",
        identity="thm2",
        printed="closed form labelled as a 5Psi4 (Fox-Wright) series",
        implemented=(
            "a terminating 5F4; all argument shifts are by the summation "
            "index itself, so every Fox-Wright weight is 1"
        ),
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
    ),
    Correction(
        key="cor3-condition",
        identity="cor3",
        printed="validity condition Re(tau) > Re(eta)",
        implemented=(
            "tau > -eta, where the Erdelyi-Kober integral of t^(tau-1) "
            "converges; tau > eta is neither necessary nor sufficient"
        ),
    ),
    Correction(
        key="pochhammer-shift",
        identity="all",
        printed="derivations writing the series factor (n - p)_k",
        implemented=(
            "(1 + n - p)_k, the factor binom(p-n-1, k) actually expands "
            "to; the printed form breaks the k = 1 term of every identity"
        ),
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
    ),
)


def corrections_for(identity: IdentityId) -> tuple[Correction, ...]:
    return tuple(
        c
        for c in CORRECTIONS
        if c.identity == identity.value or c.identity == "all"
    )


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
    base order tau.  With as_printed=True the edits of the identity's
    CORRECTIONS are applied, so the three identities that circulate with
    value-changing typos (thm1, thm3, cor4) are evaluated exactly as
    printed; for every other identity the flag is a no-op.
    """
    if not 0.0 < x < math.inf:
        raise DomainError(f"need x > 0 and finite, got {x!r}")
    op = OperatorSpec(IDENTITY_FAMILY[identity], op_params)
    img = power_image(op, tau)  # also the domain check at the base order
    num, den = img.prefactor.numerator_args, img.prefactor.denominator_args
    series_den, sign = den, -1 if poly.n % 2 else 1
    if as_printed:
        for c in corrections_for(identity):
            if c.edit is not None:
                num, series_den, sign = c.edit(op.params, tau, num, series_den, sign)

    argument = -1.0 / x if FAMILIES[op.family].right else -x
    series_value = pfq((-float(poly.n), 1.0 + poly.n - poly.p, *num),
                       (poly.q + 1.0, *series_den), argument)
    prefactor = GammaProduct((poly.q + poly.n + 1.0, *num), (poly.q + 1.0, *den), sign)
    base = gamma_product_eval(prefactor).times_power(x, img.exponent)
    return ImageEvaluation(
        value=check_finite("closed form", base.to_float() * series_value),
        prefactor=prefactor,
        series_value=series_value,
        argument=argument,
        exponent=img.exponent,
    )


def lhs_oracle(identity: IdentityId, op_params, poly: PolySpec, tau: float,
               x: float) -> float:
    """Exact finite-sum left-hand side of one identity, by _composed_image:
    for thm3/thm4 it never reads the derivative row the closed form uses."""
    return _composed_image(OperatorSpec(IDENTITY_FAMILY[identity], op_params), poly, tau, x)


def deriv_composition_oracle(op: OperatorSpec, tau: float, x: float) -> float:
    """A derivative family's power image by _composed_image: must agree with
    power_image(op, tau). ValueError if op's family has no composition."""
    if FAMILIES[op.family].composition is None:
        raise ValueError(f"{op.family.value} is not a derivative family")
    return _composed_image(op, None, tau, x)


def _composed_image(op: OperatorSpec, poly: PolySpec | None, tau: float, x: float) -> float:
    """op on its monomial convention at order tau times M_n (of t, or of 1/t
    right-sided), or times 1 if poly is None, from op's defining integral
    alone (operators._defining_integral): that integral's image at each
    order tau +/- k, then (d/dx)^m left-sided or (-d/dx)^m right-sided, term
    by term, m = max(floor(gamma) + 1, 0) for a derivative family and 0 for
    an integral one. The base order's conditions and poles imply those of
    every shifted order.

    The alternating sum can cancel five or more digits, so the terms are
    kept exact: rational coefficients, each times its exact falling
    factorial, and exact Pochhammer ratios for the shifted images (the gamma
    recurrence). The sum runs in integer Horner form
    (hypergeom.exact_series_sum) and rounds once."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"need x > 0 and finite, got {x!r}")
    spec = FAMILIES[op.family]
    inner, params, m = _defining_integral(op.family, op.params)
    coeffs = (1,) if poly is None else _coefficients_exact(poly)
    base = power_image(OperatorSpec(inner, params), tau)
    if m:
        # term k gains s_k (s_k - 1) ... (s_k - m + 1) left-sided, s_k = s + k,
        # and (-s_k) (1 - s_k) ... (m - 1 - s_k) right-sided, s_k = s - k
        sn, sd = base.exponent.as_integer_ratio()
        sn, sign = (-sn, 1) if spec.right else (sn, -1)
        coeffs = [c * Fraction(math.prod(sn + sd * (k + sign * j) for j in range(m)), sd**m)
                  for k, c in enumerate(coeffs)]
    # every gamma argument moves by +k under the order shift, so term k is
    # c_k (num)_k / (den)_k times the output power step^k, which moves with
    # the operand's own power of t
    total = exact_series_sum(coeffs, base.prefactor.numerator_args,
                             base.prefactor.denominator_args,
                             1 / Fraction(x) if spec.right else x)
    scale = gamma_product_eval(base.prefactor).times_power(x, base.exponent - m)
    return check_finite("oracle", scale.to_float() * total)


def monomial_quadrature(
    op: OperatorSpec,
    poly: PolySpec | None,
    tau: float,
    x: float,
    tol: float = DEFAULT_TOL,
    operand: Family | None = None,
) -> QuadResult:
    """Quadrature of op on a family's monomial convention at order tau times
    M_n (of t, or of 1/t right-sided), or times 1 if poly is None: op's own
    family, or operand when op embeds an operator of that family. The power
    goes into the rule's weight. Raises what operator_apply raises; M_n's
    coefficients are built on the integrand's first call, so only once
    operator_apply has accepted op."""
    spec = FAMILIES[op.family if operand is None else operand]
    coeffs = None

    def g(ts: tuple) -> list[float]:
        nonlocal coeffs
        if coeffs is None:
            coeffs = [1.0] if poly is None else m_poly_coefficients(poly)
        return [_poly_eval(coeffs, 1.0 / t if spec.right else t) for t in ts]

    return operator_apply(op, g, x, tol, power=spec.monomial_power(tau))


def quadrature_value(
    identity: IdentityId,
    op_params,
    poly: PolySpec,
    tau: float,
    x: float,
    tol: float = DEFAULT_TOL,
) -> QuadResult | None:
    """One identity's left-hand side by monomial_quadrature; None where unsupported."""
    try:
        op = OperatorSpec(IDENTITY_FAMILY[identity], op_params)
        return monomial_quadrature(op, poly, tau, x, tol)
    except UnsupportedKernelError:
        return None


# ---------------------------------------------------------------------------
# verification tags, grids and records

@dataclass(frozen=True)
class TagSpec:
    """One verification tag: the identity it checks (None for a bare
    power-image lemma), its operator family, its default grid (user config
    replaces lists per symbol), and the five-parameter embedding whose
    quadrature must match the operator's, if any."""

    identity: IdentityId | None
    family: Family
    grid: dict[str, list]
    embedding: Callable[..., OperatorSpec] | None = None


# Every identity runs its polynomial factor M_n^(p,q) over POLY_GRID. An
# operator tag starts from its kind's default point (five-parameter, derivative
# lemma or Saigo) and overrides at most one coordinate in place.
POLY_GRID = {"n": [0, 1, 2, 3], "p": [9.0], "q": [0.0, 1.5]}
MSM_POINT = {"delta": [0.5], "delta_prime": [0.3], "mu": [0.2], "mu_prime": [0.4],
             "epsilon": [1.1]}
DERIV_POINT = {"delta": [0.3], "delta_prime": [0.4], "mu": [0.1], "mu_prime": [0.2],
               "epsilon": [0.6]}
SAIGO_POINT = {"delta": [0.6], "mu": [0.2], "epsilon": [0.4]}
TAGS: dict[str, TagSpec] = {
    "thm1": TagSpec(IdentityId.THM1, Family.MSM_LEFT_INT, {
        **MSM_POINT, "delta_prime": [0.0, 0.3], **POLY_GRID,
        "tau": [2.0, 3.5], "x": [0.5, 1.0, 2.0],
    }),
    "thm2": TagSpec(IdentityId.THM2, Family.MSM_RIGHT_INT, {
        **MSM_POINT, "delta": [0.0, 0.5], **POLY_GRID,
        "tau": [2.0, 3.5], "x": [1.0, 2.0, 4.0],
    }),
    "thm3": TagSpec(IdentityId.THM3, Family.MSM_LEFT_DERIV, {
        **MSM_POINT, **POLY_GRID, "tau": [2.0, 3.5], "x": [0.5, 1.0, 2.0],
    }),
    "thm4": TagSpec(IdentityId.THM4, Family.MSM_RIGHT_DERIV, {
        **MSM_POINT, **POLY_GRID, "tau": [2.0, 3.5], "x": [1.0, 2.0, 4.0],
    }),
    "cor1": TagSpec(IdentityId.COR1, Family.SAIGO_LEFT, {
        **SAIGO_POINT, **POLY_GRID,
        "tau": [2.0, 3.5], "x": [0.5, 1.0, 2.0],
    }),
    "cor2": TagSpec(IdentityId.COR2, Family.RL_LEFT, {
        "delta": [0.5, 1.25], **POLY_GRID,
        "tau": [2.0, 3.5], "x": [0.5, 1.0, 2.0],
    }),
    "cor3": TagSpec(IdentityId.COR3, Family.EK_LEFT, {
        "epsilon": [0.5], "delta": [0.75], **POLY_GRID,
        "tau": [2.0, 3.5], "x": [0.5, 1.0, 2.0],
    }),
    "cor4": TagSpec(IdentityId.COR4, Family.SAIGO_RIGHT, {
        **SAIGO_POINT, **POLY_GRID,
        "tau": [0.5, 1.125], "x": [1.0, 2.0, 4.0],
    }),
    "cor5": TagSpec(IdentityId.COR5, Family.RL_RIGHT, {
        "delta": [0.3, 0.5], **POLY_GRID,
        "tau": [0.25, 0.4375], "x": [1.0, 2.0, 4.0],
    }),
    "cor6": TagSpec(IdentityId.COR6, Family.EK_RIGHT, {
        "epsilon": [0.8], "delta": [0.5], **POLY_GRID,
        "tau": [0.25, 0.5], "x": [1.0, 2.0, 4.0],
    }),
    # bare power images against quadrature; lem1/lem2 stay on the
    # single-series kernel slices the quadrature supports
    "lem1": TagSpec(None, Family.MSM_LEFT_INT, {
        **MSM_POINT, "delta_prime": [0.0], "tau": [1.5, 2.5], "x": [0.5, 2.0],
    }),
    "lem2": TagSpec(None, Family.MSM_RIGHT_INT, {
        **MSM_POINT, "delta": [0.0], "tau": [1.5, 2.5], "x": [1.0, 2.0],
    }),
    "lem3": TagSpec(None, Family.SAIGO_LEFT, {
        **SAIGO_POINT, "tau": [1.5, 2.5], "x": [0.5, 2.0],
    }, saigo_left_as_msm),
    # epsilon = 0 keeps the five-parameter embedding on the slice the
    # right-sided quadrature supports, so the reduction check runs too
    "lem4": TagSpec(None, Family.SAIGO_RIGHT, {
        **SAIGO_POINT, "epsilon": [0.0], "tau": [0.5, 0.75], "x": [1.0, 2.0],
    }, saigo_right_as_msm),
    "lem5": TagSpec(None, Family.MSM_LEFT_DERIV, {
        **DERIV_POINT, "tau": [3.0, 4.5], "x": [0.7, 2.0],
    }),
    "lem6": TagSpec(None, Family.MSM_RIGHT_DERIV, {
        **DERIV_POINT, "tau": [3.0, 4.5], "x": [0.7, 2.0],
    }),
}

IDENTITY_FAMILY = {spec.identity: spec.family for spec in TAGS.values() if spec.identity}
DEFAULT_GRIDS = {tag: spec.grid for tag, spec in TAGS.items()}
ALL_TAGS = list(TAGS)
TOLERANCES = ("tol_oracle", "tol_quadrature", "tol_reduction")


@dataclass
class SweepConfig:
    identities: list[str]
    grids: dict[str, dict[str, list]]  # per tag: lists replacing DEFAULT_GRIDS
    tol_oracle: float = 1e-10
    tol_quadrature: float = 1e-6
    tol_reduction: float = 1e-8
    as_printed: bool = False
    out: str = "verification.jsonl"


@dataclass
class VerificationRecord:
    identity: str
    point: dict
    oracle_value: float | None
    closed_form_value: float | None
    quadrature_value: float | None
    rel_diff: float
    verdict: str
    ledger_note: str | None = None


def rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _quad_config(cfg: SweepConfig) -> float:
    """Quadrature convergence target matched to the check tolerance.

    Two digits of headroom below the comparison tolerance is enough for
    the verdict; demanding full machine accuracy instead makes strongly
    singular weights (exponents near -1) fail to stabilize, because the
    node accuracy of very-high-order rules becomes the limit."""
    return max(cfg.tol_quadrature * 1e-2, 1e-12)


def _point_symbols(tag: str) -> list[str]:
    symbols = list(FAMILIES[TAGS[tag].family].symbols)
    if TAGS[tag].identity is not None:
        symbols += ["n", "p", "q"]
    return symbols + ["tau", "x"]


def _is_number(value) -> bool:
    """An int or a float; bool is an int but never a grid value or a tolerance."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _expand_grid(tag: str, grid: dict[str, list]) -> list[dict]:
    symbols = _point_symbols(tag)
    missing = [s for s in symbols if s not in grid or not grid[s]]
    if missing:
        raise ConfigError(f"{tag}: no grid values for {', '.join(missing)}")
    for s in symbols:
        values = grid[s]
        if not all(map(_is_number, values)):
            raise ConfigError(f"{tag}.{s}: grid values must be ints or floats, got {values!r}")
        # an int past the double range is finite yet raises in math.isfinite
        if not all(abs(v) <= sys.float_info.max for v in values):
            raise ConfigError(f"{tag}.{s}: grid values must be finite doubles, got {values!r}")
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ConfigError(f"{tag}.{s}: grid value {repeated[0]!r} is repeated")
    # PolySpec would truncate n = 1.5 to 1 under a point that says 1.5
    bad = [v for v in grid.get("n", []) if v < 0 or v != math.floor(v)]
    if bad:
        raise ConfigError(f"{tag}.n: a degree must be an integer >= 0, got {bad[0]!r}")
    return [dict(zip(symbols, combo))
            for combo in itertools.product(*(grid[s] for s in symbols))]


def _op_params(tag: str, point: dict) -> tuple[float, ...]:
    return tuple(float(point[s]) for s in FAMILIES[TAGS[tag].family].symbols)


def _underflow_note(**values: float | None) -> str | None:
    """Why comparing these values would show nothing: one of them is zero
    or below the normal range, so it carries few or no significant bits."""
    for name, value in values.items():
        if value is not None and abs(value) < sys.float_info.min:
            return (f"{name} {value:.17g} underflows (below "
                    f"{sys.float_info.min:.17g} in magnitude); not compared")
    return None


def _evaluate_point(tag: str, point: dict, cfg: SweepConfig) -> VerificationRecord:
    """One record. The closed form is judged against the tag's exact oracle
    (thm/cor: the finite sum; lem5/lem6: the derivative composition) or,
    for lem1-lem4, against quadrature, whose value is then also the
    record's oracle_value. Every tag runs monomial_quadrature, and
    operator_apply alone decides whether it is supported: a quadrature
    unsupported, not converged, overflowing or refusing the point's weight
    (an exponent rounded to -1) skips a tag without an oracle and is noted,
    with its reason, for the others. A closed form or oracle past the double
    range skips the point; a refused closed form does too, keeping any oracle value."""
    spec = TAGS[tag]
    identity, op = spec.identity, OperatorSpec(spec.family, _op_params(tag, point))
    tau, x = float(point["tau"]), float(point["x"])
    poly = None if identity is None else PolySpec(
        int(point["n"]), float(point["p"]), float(point["q"])
    )

    def exact() -> float | None:
        if identity is not None:
            return lhs_oracle(identity, op.params, poly, tau, x)
        if FAMILIES[spec.family].composition is not None:  # lem5, lem6
            return deriv_composition_oracle(op, tau, x)
        return None

    closed = oracle = None
    try:
        closed = power_image(op, tau).value_at(x) if identity is None else image_rhs(
            identity, op.params, poly, tau, x, as_printed=cfg.as_printed).value
        oracle = exact()
    except (DomainError, PoleError) as exc:
        if closed is None:  # the closed form refused the point, not the oracle
            with contextlib.suppress(DomainError, PoleError, OverflowError):
                oracle = exact()
        return VerificationRecord(
            tag, point, oracle, None, None, 0.0, "SKIPPED(domain)", str(exc)
        )
    except OverflowError as exc:
        name = "closed_form_value" if closed is None else "oracle_value"
        return VerificationRecord(
            tag, point, None, closed, None, 0.0, "SKIPPED(overflow)",
            f"{name} overflows the double range ({exc}); not compared",
        )

    notes = []
    quad = embed = None
    qtol = _quad_config(cfg)
    try:
        quad = monomial_quadrature(op, poly, tau, x, qtol)
        if spec.embedding is not None:
            try:
                embed = monomial_quadrature(
                    spec.embedding(*op.params), None, tau, x, qtol, operand=spec.family
                )
            except UnsupportedKernelError as exc:
                notes.append(f"five-parameter embedding check omitted: {exc}")
    except (UnsupportedKernelError, NonConvergedError, OverflowError, DomainError,
            PoleError) as exc:
        if oracle is None:
            reason = ("unsupported-kernel" if isinstance(exc, UnsupportedKernelError)
                      else "overflow" if isinstance(exc, OverflowError)
                      else "nonconverged" if isinstance(exc, NonConvergedError)
                      else "domain")
            return VerificationRecord(
                tag, point, None, closed, None, 0.0, f"SKIPPED({reason})", str(exc)
            )
        # supplementary check only: the oracle verdict stands, but the
        # omission is recorded
        notes.append(f"quadrature comparison omitted: {exc}")
    quad_val = None if quad is None else quad.value
    reference = quad_val if oracle is None else oracle
    diff = rel_diff(closed, reference)
    underflow = _underflow_note(
        oracle_value=oracle, closed_form_value=closed, quadrature_value=quad_val,
        embedding_quadrature_value=None if embed is None else embed.value,
    )
    if underflow:
        return VerificationRecord(
            tag, point, reference, closed, quad_val, diff, "SKIPPED(underflow)",
            "; ".join(notes + [underflow]),
        )
    ok = diff <= (cfg.tol_quadrature if oracle is None else cfg.tol_oracle)
    if oracle is not None and quad_val is not None \
            and rel_diff(quad_val, closed) > cfg.tol_quadrature:
        ok = False
        notes.append("quadrature disagrees with the closed form")
    if embed is not None:
        # quadrature-vs-quadrature reduction: the operator must match its
        # five-parameter embedding
        embed_diff = rel_diff(embed.value, quad_val)
        if embed_diff > cfg.tol_reduction:
            ok = False
            notes.append(
                f"five-parameter embedding quadrature disagrees: rel diff {embed_diff:.3e}"
            )
    if not ok and cfg.as_printed and identity is not None:
        for c in corrections_for(identity):
            if c.edit is not None:
                notes.append(
                    f"as-printed schema; adjudicated correction {c.key}: {c.implemented}"
                )
    return VerificationRecord(
        tag, point, reference, closed, quad_val, diff, "PASS" if ok else "FAIL",
        "; ".join(notes) or None,
    )


def iter_verification(cfg: SweepConfig) -> Iterator[VerificationRecord]:
    """The records for the configured grids, in deterministic order, each
    evaluated when drawn. ConfigError before the first record unless every
    tag is known, one is selected and none twice, every grid symbol belongs
    to its tag, every tolerance is a double >= 0, and every selected grid
    holds distinct finite numbers, its degrees n integers >= 0."""
    unknown = [t for t in (*cfg.identities, *cfg.grids) if t not in TAGS]
    if unknown:
        raise ConfigError(f"unknown identities: {', '.join(map(repr, unknown))}")
    if not cfg.identities:
        raise ConfigError("no identities selected")
    repeated = [t for i, t in enumerate(cfg.identities) if t in cfg.identities[:i]]
    if repeated:
        raise ConfigError(f"repeated identities: {', '.join(map(repr, repeated))}")
    unknown = [f"{tag}.{s}" for tag, grid in cfg.grids.items()
               for s in sorted(set(grid).difference(_point_symbols(tag)))]
    if unknown:
        raise ConfigError(f"unknown grid symbols: {', '.join(unknown)}")
    for key in TOLERANCES:
        value = getattr(cfg, key)
        if not _is_number(value):
            raise ConfigError(f"{key} must be an int or a float, got {value!r}")
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ConfigError(f"{key} is an int past the double range")
        # no comparison with NaN is true, and none below 0 can pass
        if not value >= 0.0:
            raise ConfigError(f"{key} must be >= 0, got {value!r}")
    grids = [(tag, _expand_grid(tag, {**DEFAULT_GRIDS[tag], **cfg.grids.get(tag, {})}))
             for tag in cfg.identities]
    return (_evaluate_point(tag, p, cfg) for tag, points in grids for p in points)


def run_verification(cfg: SweepConfig) -> list[VerificationRecord]:
    """All records for the configured grids, in deterministic order."""
    return list(iter_verification(cfg))
