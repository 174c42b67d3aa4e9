"""Real-argument gamma function, signed log-gamma, and gamma-product values.

Everything downstream (power images, hypergeometric prefactors) reduces to
ratios of gamma values whose arguments may sit anywhere on the real line, so
the primitives here carry signs explicitly and work in log space to dodge
overflow.  The gamma backend is the python stdlib (math.gamma, math.lgamma);
this module adds the pole and finiteness checks and the sign of Gamma(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DenominatorPoleError, PoleError


def is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def _check_argument(name: str, x: float) -> None:
    if not math.isfinite(x):
        raise ValueError(f"{name}: argument must be finite, got {x!r}")
    if is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at {x!r}")


def check_finite(name: str, value: float) -> float:
    """value, or OverflowError if it is past the double range (inf or NaN)."""
    if not math.isfinite(value):
        raise OverflowError(f"{name} is {value!r}")
    return value


def gamma(x: float) -> float:
    """Gamma(x) for finite real x; PoleError at nonpositive integers,
    OverflowError when the value exceeds double-precision range."""
    _check_argument("gamma", x)
    return math.gamma(x)


@dataclass(frozen=True)
class SignedLogValue:
    """A nonzero real number stored as (log|v|, sign), sign -1 or +1: a
    gamma value or a product of them, which is never 0."""

    log_magnitude: float
    sign: int

    def to_float(self) -> float:
        mag = math.exp(self.log_magnitude)  # may over/underflow naturally
        return mag if self.sign > 0 else -mag

    def times_power(self, base: float, exponent: float) -> "SignedLogValue":
        """Multiply by base**exponent for base > 0."""
        if base <= 0.0:
            raise ValueError(f"times_power: base must be positive, got {base!r}")
        return SignedLogValue(
            self.log_magnitude + exponent * math.log(base), self.sign
        )


def log_gamma_signed(x: float) -> SignedLogValue:
    """(log|Gamma(x)|, sign(Gamma(x))) for finite real x off the poles.

    Past x ~ 2.5e305 log|Gamma(x)| itself exceeds double range and the
    magnitude is +inf."""
    _check_argument("log_gamma_signed", x)
    try:
        lg = math.lgamma(x)
    except OverflowError:
        lg = math.inf
    # sign(Gamma(x)) for negative non-integer x is (-1)**ceil(-x)
    sign = -1 if x < 0.0 and math.ceil(-x) % 2 else 1
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


@dataclass(frozen=True)
class GammaProduct:
    """sign * prod Gamma(num) / prod Gamma(den), with sign +1 or -1.

    Arguments are kept symbolically so identical factors can be cancelled
    exactly before any gamma evaluation and so two products can be compared
    as multisets.
    """

    numerator_args: tuple[float, ...]
    denominator_args: tuple[float, ...]
    sign: int = 1

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"GammaProduct sign must be +1 or -1, got {self.sign!r}")

    def cancelled(self) -> "GammaProduct":
        """Remove arguments appearing (exactly equal) in both lists."""
        num = list(self.numerator_args)
        den = []
        for d in self.denominator_args:
            try:
                num.remove(d)
            except ValueError:
                den.append(d)
        return GammaProduct(tuple(num), tuple(den), self.sign)

    def checked(self) -> "GammaProduct":
        """cancelled(), after which any nonpositive-integer argument left
        raises PoleError in the numerator and DenominatorPoleError in the
        denominator, naming the argument and its side."""
        reduced = self.cancelled()
        for side, args, kind in (
            ("numerator", reduced.numerator_args, PoleError),
            ("denominator", reduced.denominator_args, DenominatorPoleError),
        ):
            for a in args:
                if is_nonpositive_integer(a):
                    raise kind(f"uncancelled gamma pole at {a!r} in the {side}")
        return reduced

    def same_factors(self, other: "GammaProduct", rel_tol: float = 0.0) -> bool:
        """True when both products have identical gamma-argument multisets
        after cancellation (and the same sign).  With
        rel_tol > 0, arguments are matched approximately instead."""
        a = self.cancelled()
        b = other.cancelled()
        if a.sign != b.sign:
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
    reduced = gp.checked()
    sign = reduced.sign
    logs = []
    for a in reduced.numerator_args:
        slv = log_gamma_signed(a)
        logs.append(slv.log_magnitude)
        sign *= slv.sign
    for a in reduced.denominator_args:
        slv = log_gamma_signed(a)
        logs.append(-slv.log_magnitude)
        sign *= slv.sign
    return SignedLogValue(math.fsum(logs), sign)
