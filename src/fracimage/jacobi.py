"""Jacobi-type orthogonal polynomials M_n^(p,q) and classical Jacobi
polynomials.

M_n^(p,q) is the degree-n polynomial

    M_n^(p,q)(x) = (-1)^n n! sum_k binom(p-n-1, k) binom(q+n, n-k) (-x)^k,

orthogonal on (0, inf) with weight x^q (1+x)^(-(p+q)) when p > 2n+1 and
q > -1. With (q+1)_n = n! binom(q+n, n), its terminating hypergeometric form is

    (-1)^n (q+1)_n 2F1(-n, n+1-p; q+1; -x),

and it connects to the classical Jacobi polynomial through
M_n^(p,q)(x) = (-1)^n n! P_n^(q, -p-q)(2x+1).

The exact coefficients are built on integers and memoised per PolySpec in
a bounded module-level cache (_coefficients_exact, an immutable tuple of
Fractions), since the oracle, the quadrature integrand and m_poly all ask
for the same polynomial at many points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .gammafns import check_finite, pochhammer
from .hypergeom import as_ratio, exact_series_sum, gauss_2f1


@dataclass(frozen=True)
class PolySpec:
    """Degree and parameters of M_n^(p,q). Evaluation needs no constraint;
    orthogonality claims need p > 2n+1 and q > -1."""

    n: int
    p: float
    q: float

    def __post_init__(self) -> None:
        if self.n < 0 or self.n != int(self.n):
            raise ValueError(f"degree must be a nonnegative integer, got {self.n!r}")


@dataclass(frozen=True)
class JacobiSpec:
    """Degree and parameters of the classical Jacobi polynomial."""

    n: int
    alpha: float
    beta: float

    __post_init__ = PolySpec.__post_init__


@lru_cache(maxsize=256)
def _coefficients_exact(spec: PolySpec) -> tuple[Fraction, ...]:
    """Exact coefficients of M_n^(p,q), memoised per PolySpec.

    With p = pn/pd and q = qn/qd, n! binom(p-n-1, k) binom(q+n, n-k) is
    binom(n, k) A_k B_(n-k) / (pd^k qd^(n-k)), where A_k and B_m are the
    integer falling products of pn - (n+1)pd and qn + n qd; each
    coefficient is reduced once."""
    n = spec.n
    pn, pd = as_ratio(spec.p)
    qn, qd = as_ratio(spec.q)
    falling_p = [1]
    for j in range(n):
        falling_p.append(falling_p[-1] * (pn - (n + 1 + j) * pd))
    falling_q = [1]
    for j in range(n):
        falling_q.append(falling_q[-1] * (qn + (n - j) * qd))
    return tuple(
        Fraction(
            (-1) ** (n + k) * math.comb(n, k) * falling_p[k] * falling_q[n - k],
            pd**k * qd ** (n - k),
        )
        for k in range(n + 1)
    )


def m_poly_coefficients(spec: PolySpec) -> list[float]:
    """Coefficients [c_0, ..., c_n] of M_n^(p,q)(x) = sum c_k x^k.

    The alternating binomial products cancel heavily for larger n, so they
    are built in exact rational arithmetic (float parameters are exact
    rationals) and rounded once per coefficient."""
    return [float(c) for c in _coefficients_exact(spec)]


def m_poly(spec: PolySpec, x: float, method: str = "direct") -> float:
    """M_n^(p,q)(x).

    method="direct" evaluates the explicit coefficient sum exactly and
    rounds once; method="hypergeometric" is (-1)^n (q+1)_n times the exact
    terminating 2F1 sum, and raises DenominatorPoleError when q+1 is a
    nonpositive integer reached before the series terminates."""
    if method == "direct":
        return exact_series_sum(_coefficients_exact(spec), (), (), x)
    if method == "hypergeometric":
        n, p, q = spec.n, spec.p, spec.q
        sign_n = -1.0 if n % 2 else 1.0
        front = sign_n * pochhammer(q + 1.0, n)
        return front * gauss_2f1(float(-n), n + 1.0 - p, q + 1.0, -x)
    raise ValueError(f"unknown method {method!r}")


def jacobi_p(spec: JacobiSpec, x: float) -> float:
    """Classical Jacobi polynomial P_n^(alpha,beta)(x) by the three-term
    recurrence; OverflowError past the double range. Degenerate parameter
    sums (2n+alpha+beta hitting zero inside the recurrence) are the
    caller's concern; the connection-formula range used here never
    triggers them."""
    n, a, b = spec.n, spec.alpha, spec.beta
    if n == 0:
        return 1.0
    prev = 1.0
    cur = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
    for m in range(2, n + 1):
        s = 2.0 * m + a + b
        c1 = 2.0 * m * (m + a + b) * (s - 2.0)
        c2 = (s - 1.0) * (s * (s - 2.0) * x + a * a - b * b)
        c3 = 2.0 * (m + a - 1.0) * (m + b - 1.0) * s
        prev, cur = cur, (c2 * cur - c3 * prev) / c1
    return check_finite("jacobi_p", cur)


def m_jacobi_connection(spec: PolySpec, x: float) -> tuple[float, float]:
    """Both sides of M_n^(p,q)(x) = (-1)^n n! P_n^(q, -p-q)(2x+1)."""
    lhs = m_poly(spec, x)
    sign_n = -1.0 if spec.n % 2 else 1.0
    jac = JacobiSpec(spec.n, spec.q, -spec.p - spec.q)
    rhs = sign_n * math.factorial(spec.n) * jacobi_p(jac, 2.0 * x + 1.0)
    return lhs, rhs


def weight(p: float, q: float, x: float) -> float:
    """Orthogonality weight x^q (1+x)^(-(p+q)) for x > 0."""
    if x <= 0.0:
        raise DomainError(f"weight needs x > 0, got {x!r}")
    return x**q * (1.0 + x) ** (-(p + q))


def _poly_derivative(coeffs: list[float]) -> list[float]:
    return [k * c for k, c in enumerate(coeffs)][1:] or [0.0]


def _poly_eval(coeffs: list[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def ode_residual(spec: PolySpec, x: float, printed_eigenvalue: bool = False) -> float:
    """Residual of x(1+x) y'' + [(2-p)x + (1+q)] y' - n(n+1-p) y at x,
    with y = M_n^(p,q), differentiated exactly coefficient-wise.

    printed_eigenvalue=True swaps in the eigenvalue n(n-1+p), which direct
    substitution refutes for every n >= 1; it is kept evaluable so the
    discrepancy stays demonstrable."""
    n, p, q = spec.n, spec.p, spec.q
    coeffs = m_poly_coefficients(spec)
    d1 = _poly_derivative(coeffs)
    d2 = _poly_derivative(d1)
    y = _poly_eval(coeffs, x)
    yp = _poly_eval(d1, x)
    ypp = _poly_eval(d2, x)
    lam = n * (n - 1.0 + p) if printed_eigenvalue else n * (n + 1.0 - p)
    return x * (1.0 + x) * ypp + ((2.0 - p) * x + (1.0 + q)) * yp - lam * y
