"""Real-argument gamma function, signed log-gamma, and gamma-product values.

Everything downstream (power images, hypergeometric prefactors) reduces to
ratios of gamma values whose arguments may sit anywhere on the real line, so
the primitives here carry signs explicitly and work in log space to dodge
overflow.  The gamma backend is a Lanczos approximation (g = 607/128, 15
coefficients) with reflection for negative arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DenominatorPoleError, PoleError

__all__ = [
    "SignedLogValue",
    "GammaProduct",
    "gamma",
    "log_gamma_signed",
    "pochhammer",
    "binomial_real",
    "gamma_product_eval",
]

# Lanczos coefficients for g = 607/128, n = 15 (Godfrey's set).
_LANCZOS_G = 4.7421875
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Largest x with Gamma(x) representable in double precision.
GAMMA_OVERFLOW_X = 171.624


def is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def _lanczos_series(x: float) -> float:
    # Valid for x >= 0.5; relative error ~1e-16.
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (x - 1.0 + i)
    return acc


def sin_pi(x: float) -> float:
    """sin(pi*x) with range reduction done on x itself, so large arguments
    keep full accuracy (math.sin(math.pi*x) does not)."""
    k = math.floor(x)
    r = x - k  # r in [0, 1)
    if r > 0.5:
        s = math.sin(math.pi * (1.0 - r))
    else:
        s = math.sin(math.pi * r)
    if int(k) % 2:
        s = -s
    return s


def _shifted_arg(x: float) -> tuple[float, float]:
    # t = x + (g - 0.5) with its exact rounding residual (TwoSum).
    b = _LANCZOS_G - 0.5
    t = x + b
    bb = t - x
    dt = (x - (t - bb)) + (b - bb)
    return t, dt


def _approx_digamma(u: float) -> float:
    # Crude psi(u) for u >= 1; only multiplies ~1e-14 residuals, so a few
    # digits are plenty.
    if u < 8.0:
        return _approx_digamma(u + 1.0) - 1.0 / u
    inv = 1.0 / u
    return math.log(u) - 0.5 * inv - inv * inv / 12.0


def _gamma_positive(x: float) -> float:
    # x >= 0.5.  The power t**(x-0.5) overflows long before Gamma(x) does,
    # so split it into two half powers (cephes-style).  The residual dt of
    # the argument shift feeds back with sensitivity -g/t.
    t, dt = _shifted_arg(x)
    half = math.pow(t, 0.5 * x - 0.25)
    value = _SQRT_2PI * _lanczos_series(x) * half * (half * math.exp(-t))
    return value * (1.0 - dt * _LANCZOS_G / t)


def gamma(x: float) -> float:
    """Gamma(x) for finite real x; PoleError at nonpositive integers,
    OverflowError when the value exceeds double-precision range."""
    if not math.isfinite(x):
        raise ValueError(f"gamma: argument must be finite, got {x!r}")
    if is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at {x!r}", argument=x)
    if x == 1.0 or x == 2.0:
        return 1.0
    if x >= 0.5:
        if x > GAMMA_OVERFLOW_X:
            raise OverflowError(
                f"gamma({x!r}) exceeds double range; use log_gamma_signed"
            )
        return _gamma_positive(x)
    if x > 0.0:
        # Recurrence keeps us on the well-conditioned branch.
        return _gamma_positive(x + 1.0) / x
    # Reflection for x < 0: Gamma(x) = pi / (sin(pi x) * Gamma(1 - x)).
    if 1.0 - x > GAMMA_OVERFLOW_X:
        slv = log_gamma_signed(x)
        return slv.to_float()  # graceful underflow toward +-0.0
    # 1 - x can round (binade promotion); fold the residual back in via
    # Gamma(y + dy) ~ Gamma(y) * (1 + dy * psi(y)).
    y = 1.0 - x
    bb = y - 1.0
    dy = (1.0 - (y - bb)) + (-x - bb)
    gy = _gamma_positive(y) * (1.0 + dy * _approx_digamma(y))
    return math.pi / (sin_pi(x) * gy)


@dataclass(frozen=True)
class SignedLogValue:
    """A real number stored as (log|v|, sign).  sign is -1, 0, or +1;
    log_magnitude is -inf exactly when sign == 0."""

    log_magnitude: float
    sign: int

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        mag = math.exp(self.log_magnitude)  # may over/underflow naturally
        return mag if self.sign > 0 else -mag

    def times_power(self, base: float, exponent: float) -> "SignedLogValue":
        """Multiply by base**exponent for base > 0."""
        if base <= 0.0:
            raise ValueError(f"times_power: base must be positive, got {base!r}")
        if self.sign == 0:
            return self
        return SignedLogValue(
            self.log_magnitude + exponent * math.log(base), self.sign
        )


def log_gamma_signed(x: float) -> SignedLogValue:
    """(log|Gamma(x)|, sign(Gamma(x))) for finite real x off the poles."""
    if not math.isfinite(x):
        raise ValueError(f"log_gamma_signed: argument must be finite, got {x!r}")
    if is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at {x!r}", argument=x)
    if x == 1.0 or x == 2.0:
        # the only arguments whose log-gamma is exactly representable
        return SignedLogValue(0.0, 1)
    if x >= 0.5:
        t = x + _LANCZOS_G - 0.5
        lg = _LOG_SQRT_2PI + (x - 0.5) * math.log(t) - t + math.log(
            _lanczos_series(x)
        )
        return SignedLogValue(lg, 1)
    if x > 0.0:
        base = log_gamma_signed(x + 1.0)
        return SignedLogValue(base.log_magnitude - math.log(x), 1)
    # x < 0, not an integer: reflection in log space.  sign(Gamma(x)) for
    # negative non-integer x is (-1)**ceil(-x).
    s = sin_pi(x)
    y = 1.0 - x
    bb = y - 1.0
    dy = (1.0 - (y - bb)) + (-x - bb)
    refl = log_gamma_signed(y)
    lg = (
        math.log(math.pi)
        - math.log(abs(s))
        - (refl.log_magnitude + dy * _approx_digamma(y))
    )
    sign = -1 if int(math.ceil(-x)) % 2 else 1
    return SignedLogValue(lg, sign)


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); exact for small integer
    factors.  k must be a nonnegative integer."""
    if k < 0:
        raise ValueError(f"pochhammer: k must be >= 0, got {k!r}")
    acc = 1.0
    for i in range(k):
        acc *= a + i
    return acc


def binomial_real(a: float, k: int) -> float:
    """Generalized binomial coefficient C(a, k) = a(a-1)...(a-k+1)/k! for
    real a and nonnegative integer k; exact for integer a in range."""
    if k < 0:
        raise ValueError(f"binomial_real: k must be >= 0, got {k!r}")
    falling = 1.0
    for i in range(k):
        falling *= a - i
    return falling / math.factorial(k)


@dataclass(frozen=True)
class GammaProduct:
    """sign * rational_scale * prod Gamma(num) / prod Gamma(den).

    Arguments are kept symbolically so identical factors can be cancelled
    exactly before any gamma evaluation and so two products can be compared
    as multisets.
    """

    numerator_args: tuple[float, ...]
    denominator_args: tuple[float, ...]
    sign: int = 1
    rational_scale: Fraction = Fraction(1)

    def __mul__(self, other: "GammaProduct") -> "GammaProduct":
        return GammaProduct(
            self.numerator_args + other.numerator_args,
            self.denominator_args + other.denominator_args,
            self.sign * other.sign,
            self.rational_scale * other.rational_scale,
        )

    def cancelled(self) -> "GammaProduct":
        """Remove arguments appearing (exactly equal) in both lists."""
        num = list(self.numerator_args)
        den = []
        for d in self.denominator_args:
            try:
                num.remove(d)
            except ValueError:
                den.append(d)
        return GammaProduct(tuple(num), tuple(den), self.sign, self.rational_scale)

    def same_factors(self, other: "GammaProduct", rel_tol: float = 0.0) -> bool:
        """True when both products have identical gamma-argument multisets
        after cancellation (and the same sign and rational scale).  With
        rel_tol > 0, arguments are matched approximately instead."""
        a = self.cancelled()
        b = other.cancelled()
        if a.sign != b.sign or a.rational_scale != b.rational_scale:
            return False
        for mine, theirs in (
            (a.numerator_args, b.numerator_args),
            (a.denominator_args, b.denominator_args),
        ):
            if len(mine) != len(theirs):
                return False
            if rel_tol == 0.0:
                if sorted(mine) != sorted(theirs):
                    return False
            else:
                for u, v in zip(sorted(mine), sorted(theirs)):
                    if not math.isclose(u, v, rel_tol=rel_tol, abs_tol=rel_tol):
                        return False
        return True


def gamma_product_eval(gp: GammaProduct) -> SignedLogValue:
    """Evaluate a GammaProduct in log space.

    Exactly paired arguments cancel before evaluation; any remaining
    nonpositive-integer argument raises PoleError naming the argument."""
    reduced = gp.cancelled()
    for side, args in (
        ("numerator", reduced.numerator_args),
        ("denominator", reduced.denominator_args),
    ):
        for a in args:
            if is_nonpositive_integer(a):
                kind = DenominatorPoleError if side == "denominator" else PoleError
                raise kind(
                    f"uncancelled gamma pole at {a!r} in {side}",
                    argument=a,
                    side=side,
                )
    if reduced.rational_scale == 0:
        return SignedLogValue(float("-inf"), 0)
    sign = reduced.sign
    if reduced.rational_scale < 0:
        sign = -sign
    logs = [
        math.log(abs(reduced.rational_scale.numerator)),
        -math.log(reduced.rational_scale.denominator),
    ]
    for a in reduced.numerator_args:
        slv = log_gamma_signed(a)
        logs.append(slv.log_magnitude)
        sign *= slv.sign
    for a in reduced.denominator_args:
        slv = log_gamma_signed(a)
        logs.append(-slv.log_magnitude)
        sign *= slv.sign
    return SignedLogValue(math.fsum(logs), sign)
