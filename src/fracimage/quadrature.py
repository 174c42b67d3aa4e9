"""Direct numerical evaluation of the fractional integral operators.

This is the independent oracle for the closed-form images: nothing here
reuses the gamma-product formulas, only the integral definitions (the
quadrature recipes of operators.FAMILIES, never their images). Endpoint
singularities u^a0 (1-u)^a1 are absorbed into the rule's weights, so the
evaluated factor of the integrand is smooth and the rules converge
spectrally.

Every rule is Fejer's first rule, in plain floats: its N nodes are the
Chebyshev points u_j = cos^2(theta_j / 2), theta_j = pi (j + 1/2) / N,
taken as sin^2 of the complementary angle so that each keeps its relative
precision next to u = 0; g never sees 0 or 1. Only the weights depend on
the weight function. They integrate g's Chebyshev interpolant exactly
against u^a0 (1-u)^a1, so they are a DCT-III of the weight's modified
moments M_k = int_{-1}^{1} (1-y)^a0 (1+y)^a1 T_k(y) dy, y = 1 - 2u, done by
a radix-2 FFT. The moments follow from M_0 = 2^(a0+a1+1) B(a0+1, a1+1) and
M_1 = M_0 (a1-a0)/(a0+a1+2) by the forward recurrence
(a0+a1+2+k) M_(k+1) = 2(a1-a0) M_k - (a0+a1+2-k) M_(k-1), which stays
within 1.5e-13 M_0 of the exact moments for every k < 4,096 at exponents
from -0.99 to 1,000 (Piessens and Branders, BIT 13, 1973; Trefethen, SIAM
Review 50, 2008). Each rule is memoised per (N, weight), up to 128 rules;
its nodes, DCT factors, FFT plan and null rows are one table per N.

A quadrature's error is read off its own rule, from the last four
Chebyshev coefficients of g's interpolant as null rules (Berntsen and
Espelid, ACM TOMS 17, 1991): NULL_SAFETY times the weight's mass times the
larger of the last two, times its ratio to the larger of the two before
where the coefficients decay. From the second rule on, NULL_SAFETY times
the difference from the previous rule takes its place where that is
smaller, which is what an integrand with an endpoint singularity of its
own needs. A rule whose estimate misses both the target and the rounding
noise is doubled.

Left-sided integrals substitute t = x*u; right-sided ones t = x/u, mapping
(x, inf) onto (0, 1). The 2F1 kernels (argument 1-u) are split at u = 1/2:
the right half is evaluated by the fast-converging series directly, the
left half through the standard connection formula at 1-u, which turns the
u -> 0 behavior into two more Jacobi-weighted smooth integrals. Where the
formula has a pole (a logarithmic kernel), splits beside it are interpolated.

An operand is t^power g(t): its leading power goes into the weight and
is never evaluated at a node, so the caller's g is only the smooth
factor (1 for a monomial, the polynomial for an identity). Every
integrand takes a rule's nodes as a tuple of floats and returns its
values there as a sequence of floats, or one constant for all of them.
A kernel piece's series is summed at all of its rule's nodes by one
hypergeom.pfq_at call. Each kernel piece's node factor is memoised per
(series, piece, power, N) in a bounded cache, since it does not depend
on the integrand's other factor: a grid that sweeps x and the polynomial
around one operator sums each series once per rule.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from .errors import (
    DenominatorPoleError,
    DomainError,
    NonConvergedError,
    UnsupportedKernelError,
)
from .gammafns import GammaProduct, check_finite, gamma_product_eval, is_nonpositive_integer
from .hypergeom import pfq_at
from .operators import FAMILIES, OperatorSpec

# |diff| <= NOISE_FLOOR * (sum of |weighted terms|) counts as converged: the
# remaining difference is rounding, not discretization. Node accuracy limits
# resolution to ~1e-12 of the L1 mass at high orders, which is what a
# cancelling (e.g. orthogonality) integral stabilizes at.
NOISE_FLOOR = 1e-12
ERROR_FLOOR = 1e-16


# a quadrature starts from NODE_COUNT nodes and doubles the rule up to
# MAX_REFINEMENTS times, to 4,096 nodes (both read at call time)
NODE_COUNT = 16
MAX_REFINEMENTS = 8
# the step in e = kc-ka-kb of a 2F1 kernel's split near an integer e
LOG_STEP = 1e-3
# the safety factor of a rule's error estimate (quad_endpoint_singular)
NULL_SAFETY = 10.0
# the relative error target of every quadrature entry point
DEFAULT_TOL = 1e-10

# an integrand: the values at a rule's nodes, or one constant for all
Integrand = Callable[[tuple], Sequence[float] | float]


class QuadResult(NamedTuple):
    value: float
    error: float
    nodes: int


@lru_cache(maxsize=16)
def _chebyshev(n: int) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...], list, list, list]:
    """The one table of every n-point rule, whatever its weight: the n nodes
    u_j = sin^2(pi (2j+1) / (4n)), ascending; the rows R with R . g(nodes)
    g's interpolant's coefficient on T_k, k = n-1 down to n-4, in y = 1 - 2u:
    (2/n) cos(k phi_j), phi_j = pi (2j+1) / (2n), each angle reduced exactly
    before the cosine is taken; the DCT factors exp(i pi k / (2n)), k < n,
    of _fejer_weights; per stage of _fft, the indices of its even and odd
    inputs and its twiddles; and the FFT output index of each weight."""
    nodes = tuple(math.sin(math.pi * (2 * j + 1) / (4 * n)) ** 2 for j in range(n))
    rows = tuple(
        tuple(2.0 / n * math.cos(math.pi * (k * (2 * j + 1) % (4 * n)) / (2 * n))
              for j in range(n))
        for k in range(n - 1, max(n - 5, 0), -1))
    shifts = [cmath.rect(1.0, math.pi * k / (2 * n)) for k in range(n)]
    stages, m, s = [], 1, n
    while s > 1:
        h = s // 2
        stages.append(([k + i for k in range(0, n, s) for i in range(h)],
                       [k + i for k in range(h, n, s) for i in range(h)],
                       [cmath.rect(1.0, math.pi * (i // h) / m) for i in range(n // 2)]))
        m, s = 2 * m, h
    order = [j // 2 if j % 2 == 0 else n - 1 - j // 2 for j in range(n)]
    return nodes, rows, shifts, stages, order


def _fft(x: list, stages: list) -> list:
    """sum_k x_k exp(2 pi i jk / n) for every j < n, n a power of two, in the
    log2(n) radix-2 stages of _chebyshev(n) (Stockham's order: no bit reversal)."""
    for evens, odds, twiddles in stages:
        at = x.__getitem__
        even = list(map(at, evens))
        odd = list(map(operator.mul, twiddles, map(at, odds)))
        x = list(map(operator.add, even, odd)) + list(map(operator.sub, even, odd))
    return x


def _fejer_weights(moments: list[float]) -> tuple[float, ...]:
    """w_j = (2/n) (M_0/2 + sum_(k>=1) M_k cos(k phi_j)), the DCT-III of the
    moments, by one n-point FFT: with V_k = M_k exp(i pi k / (2n)), the
    sum at j = 2m and at j = 2n-1-2m is Re FFT(V)_m."""
    n = len(moments)
    _, _, shifts, stages, order = _chebyshev(n)
    spectrum = _fft([moments[0] / 2.0 * shifts[0], *map(operator.mul, moments[1:], shifts[1:])],
                    stages)
    scale = 2.0 / n
    return tuple(scale * spectrum[i].real for i in order)


def _beta(p: float, q: float) -> float:
    """B(p, q) for p, q > 0: the larger argument is stepped down until
    math.gamma of the sum is finite, B(p+1, q) = B(p, q) p / (p + q)."""
    scale = 1.0
    while p + q > 170.0:
        if p >= q:
            p -= 1.0
            scale *= p / (p + q)
        else:
            q -= 1.0
            scale *= q / (p + q)
    return scale * math.gamma(p) * math.gamma(q) / math.gamma(p + q)


def roots_jacobi(n: int, a0: float, a1: float) -> tuple:
    """(w, mass) of the n-point Fejer rule of the weight u^a0 (1-u)^a1:
    int_0^1 u^a0 (1-u)^a1 g(u) du ~ mass * sum w g(u) on the nodes of
    _chebyshev(n), sum w = 1 to rounding. perfbench's rule-build hook
    times this function by its name.

    The weights are those of M_k / M_0, which the recurrence starts from 1
    and (a1-a0)/(a0+a1+2). Raises OverflowError, naming the exponents, if
    M_0's factor 2^(a0+a1+1) is past the double range, before the rule is
    built."""
    if a0 + a1 + 1.0 >= sys.float_info.max_exp:
        raise OverflowError(
            f"Gauss-Jacobi weight (1-x)^{a1!r} (1+x)^{a0!r}: its mass "
            "factor 2^(alpha+beta+1) is past the double range"
        )
    c = a0 + a1 + 2.0
    moments = [1.0, (a1 - a0) / c]
    for k in range(1, n - 1):
        moments.append((2.0 * (a1 - a0) * moments[k] - (c - k) * moments[k - 1]) / (c + k))
    return _fejer_weights(moments[:n]), _beta(a0 + 1.0, a1 + 1.0)


@lru_cache(maxsize=128)
def _gj_rule(n: int, a0: float, a1: float):
    """The nodes, the weights, the mass and the rows of the error estimate
    (_chebyshev) of the n-point rule int_0^1 u^a0 (1-u)^a1 g(u) du ~
    mass * sum w g(u), each a tuple, memoised per (n, a0, a1). perfbench's
    rule-lookup hook counts the calls of this function by its name."""
    nodes, rows, *_ = _chebyshev(n)
    return (nodes, *roots_jacobi(n, a0, a1), rows)


def quad_endpoint_singular(
    g: Integrand,
    exponent_at_0: float,
    exponent_at_1: float,
    tol: float = DEFAULT_TOL,
) -> QuadResult:
    """int_0^1 u^exponent_at_0 (1-u)^exponent_at_1 g(u) du for smooth g.

    Both exponents must exceed -1 (integrability). g takes a rule's nodes
    as a tuple of floats and returns g at every node, or one constant.
    Nodes are strictly interior, so g never sees 0 or 1. Raises
    OverflowError if g is not finite at a node, and ValueError unless
    tol > 0.

    A rule is accepted once its error estimate (see the module docstring)
    is within tol (relative) or within the rounding noise of its L1 mass;
    otherwise the rule is doubled. Right-sided integrals never truncate
    the tail: the t = x/u substitution maps all of it onto (0, 1)."""
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    if not (exponent_at_0 > -1.0 and exponent_at_1 > -1.0):
        raise DomainError(
            f"weight exponents must be > -1, got ({exponent_at_0!r}, {exponent_at_1!r})"
        )
    prev = None
    for n in (NODE_COUNT << i for i in range(MAX_REFINEMENTS + 1)):
        nodes, weights, scale, null = _gj_rule(n, exponent_at_0, exponent_at_1)
        values = _at_nodes(g(nodes), n)
        terms = list(map(operator.mul, weights, values))
        # the weights are finite: a non-finite value makes this so
        l1 = scale * math.fsum(map(abs, terms))
        if not math.isfinite(l1):
            raise OverflowError(f"the integrand is not finite on the {n}-node rule")
        est = scale * math.fsum(terms)
        c = [abs(math.fsum(map(operator.mul, row, values))) for row in null]
        last, before = max(c[:2]), max(c[2:])
        error = NULL_SAFETY * scale * last * (min(last / before, 1.0) if before else 1.0)
        if prev is not None:
            error = min(error, NULL_SAFETY * abs(est - prev))
        if error <= tol * abs(est) or error <= NOISE_FLOOR * l1:
            return QuadResult(est, max(error, ERROR_FLOOR * l1), n)
        prev = est
    raise NonConvergedError(
        f"quadrature did not stabilize within {NODE_COUNT << MAX_REFINEMENTS} "
        f"nodes ({MAX_REFINEMENTS} doublings from {NODE_COUNT})"
    )


def _at_nodes(values, n: int):
    """An integrand's values at n nodes: a constant stands for all of them."""
    return (values,) * n if isinstance(values, (int, float)) else values


def _connection_coefficient(num: tuple, den: tuple) -> float:
    """Gamma ratio that is zero when a denominator argument is a pole."""
    try:
        return gamma_product_eval(GammaProduct(num, den)).to_float()
    except DenominatorPoleError:
        return 0.0


@lru_cache(maxsize=128)
def _kernel_piece(
    series: tuple[float, float, float],
    piece: str,
    power: float | None,
    n: int,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The prefactors and points u of one 2F1 kernel piece on the nodes v
    of the n-point rule, with K = 2F1(series; .) summed at every point by
    one pfq_at call:

        whole       K(1-u)              at u = v
        right_half  u^power K(1-u)      at u = 1 - v/2
        left_half   (1-u)^power K(u)    at u = v/2

    The piece's integrand at u is prefactor * s(u). None of this depends
    on s, so the points of a grid that share an operator and a rule (every
    x, polynomial and power) sum each series once. A prefactor is formed
    as (u^power * K) before s(u) multiplies it, the order of the unmemoised
    expression, so the values are bit for bit the same."""
    v = _chebyshev(n)[0]
    if piece == "whole":
        u, base = v, None
        z = [1.0 - t for t in v]
    elif piece == "right_half":
        u = tuple(1.0 - t / 2.0 for t in v)
        z, base = [1.0 - t for t in u], u
    else:
        u = tuple(t / 2.0 for t in v)
        z, base = u, [1.0 - t for t in u]
    pre = pfq_at(series[:2], series[2:], z)
    if base is not None:
        pre = [b**power * k for b, k in zip(base, pre)]
    return tuple(pre), u


def _kernel_quad(
    kernel: tuple[float, float, float],
    a0: float,
    b0: float,
    s: Integrand,
    tol: float,
) -> QuadResult:
    """int_0^1 u^a0 (1-u)^b0 2F1(ka, kb; kc; 1-u) s(u) du.

    A polynomial kernel (ka or kb a nonpositive integer) goes through a
    single rule; any other is split at 1/2 and the u -> 0 half rewritten by
    the 2F1 connection formula, so every piece has a pure Jacobi weight.
    Near an integer e = kc-ka-kb, where the kernel has a logarithm, that
    split is interpolated from six shifted ones and must meet tol."""
    ka, kb, kc = kernel

    def piece(name: str, series=kernel, power: float | None = None):
        def g(v: tuple) -> list[float]:
            pre, u = _kernel_piece(series, name, power, len(v))
            return [k * f for k, f in zip(pre, _at_nodes(s(u), len(u)))]

        return g

    e = kc - ka - kb
    if is_nonpositive_integer(ka) or is_nonpositive_integer(kb):
        return quad_endpoint_singular(piece("whole"), a0, b0, tol)
    k = round(e)
    if abs(e - k) < LOG_STEP / 3.0:
        # the splits at e = k +- h, k +- 2h, k +- 3h (h = LOG_STEP, moving kb),
        # held to tol * h since their coefficients Gamma(+-e) ~ 1/h cancel,
        # and their Lagrange interpolants at t through all six and the inner four
        t, steps = (e - k) / LOG_STEP, (-3, -2, -1, 1, 2, 3)
        parts = [_kernel_quad((ka, kc - ka - k - j * LOG_STEP, kc), a0, b0, s,
                              tol * LOG_STEP) for j in steps]
        six = [math.prod((t - m) / (j - m) for m in steps if m != j) for j in steps]
        four = [math.prod((t - m) / (j - m) for m in steps[1:-1] if m != j) for j in steps[1:-1]]
        value = math.fsum(w * p.value for w, p in zip(six, parts))
        error = math.fsum(abs(w) * p.error for w, p in zip(six, parts)) + abs(
            value - math.fsum(w * p.value for w, p in zip(four, parts[1:-1])))
        if not error <= tol * abs(value):
            raise NonConvergedError(f"2F1 kernel quadrature near e = {k} did not converge: "
                                    f"error {error:.3g}, target {tol * abs(value):.3g}")
        return QuadResult(value, error, max(p.nodes for p in parts))

    # (coefficient, piece, weight exponent at v = 0), summed in this order.
    # Right half, u = 1 - v/2 in (1/2, 1): series argument v/2 < 1/2. Left
    # half, u = v/2 in (0, 1/2): K(u) = coeff_a*phi1(u) + coeff_b*u^e*phi2(u),
    # one connection-formula series at argument u each
    pieces = [
        (1.0, piece("right_half", power=a0), b0),
        (_connection_coefficient((kc, e), (kc - ka, kc - kb)),
         piece("left_half", (ka, kb, 1.0 - e), b0), a0),
        (_connection_coefficient((kc, -e), (ka, kb)),
         piece("left_half", (kc - ka, kc - kb, 1.0 + e), b0), a0 + e),
    ]
    pieces = [p for p in pieces if p[0] != 0.0]
    # -0.0 + v is v for every v, so the first piece's value passes unchanged
    value, error, nodes = -0.0, 0.0, 0
    for coeff, g, w in pieces:
        part = quad_endpoint_singular(g, w, 0.0, tol)
        scale = coeff * 0.5 ** (w + 1.0)
        value += scale * part.value
        error += abs(scale) * part.error
        nodes = max(nodes, part.nodes)
    return QuadResult(value, error, nodes)


def operator_apply(
    op: OperatorSpec,
    g: Integrand,
    x: float,
    tol: float = DEFAULT_TOL,
    power: float = 0.0,
) -> QuadResult:
    """Numerically apply an integral-family operator to t^power g(t) at x.

    power is the operand's leading power at t -> 0 (left-sided families)
    or at t -> infinity (right-sided); it goes into the quadrature weight
    exactly and is never evaluated at a node. g, the smooth factor, takes
    a tuple of points t and returns g at each of them, or one constant.
    For the monomial t^(tau-1) pass g = 1 and power = tau-1, and the rule
    integrates it to machine accuracy.

    Derivative families and the full two-series kernel regime have no
    supported quadrature and raise UnsupportedKernelError; the exact
    finite-sum oracle covers them instead."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"operator_apply needs x > 0 and finite, got {x!r}")
    if not math.isfinite(power):
        raise DomainError(f"operator_apply needs a finite power, got {power!r}")
    spec = FAMILIES[op.family]
    recipe = spec.quadrature
    if recipe is None:
        raise UnsupportedKernelError(
            f"{op.family.value} has no direct quadrature (a derivative family)"
        )
    right = spec.right
    named = op.named_params()
    order = named[recipe.order]
    if order <= 0.0:
        raise DomainError(f"operator order must be positive: {recipe.order} = {order!r}")
    if recipe.single_series and all(named[p] != 0.0 for p in recipe.single_series):
        first, second = recipe.single_series
        raise UnsupportedKernelError(
            f"{'right' if right else 'left'} integral quadrature needs "
            f"{first} = 0 or {second} = 0 (two-series kernel regime is out "
            "of scope)"
        )

    def smooth(u: tuple) -> Sequence[float] | float:
        return g(tuple(x / t for t in u) if right else tuple(x * t for t in u))

    # |x - t|^(order - 1) becomes the weight (1 - u)^(order - 1)
    w0, w1 = recipe.u_power(*op.params, power), order - 1.0
    if recipe.kernel is None:
        quad = quad_endpoint_singular(smooth, w0, w1, tol)
    else:
        quad = _kernel_quad(recipe.kernel(*op.params), w0, w1, smooth, tol)
    x_power = recipe.x_power(*op.params, power)
    # the rule's mass B(a0 + 1, w1 + 1) carries Gamma(w1 + 1), w1 rounded:
    # dividing by the same Gamma, not Gamma(order), cancels that rounding,
    # ~1e-16 / order relative below order 1/2
    try:
        factor = x**x_power / math.gamma(w1 + 1.0)
    except OverflowError:
        # Gamma(order) overflows past order ~171.6; only then take the
        # factor in log space, which costs a few ulps at smaller orders
        inverse = gamma_product_eval(GammaProduct((), (w1 + 1.0,)))
        factor = inverse.times_power(x, x_power).to_float()
    value = check_finite("quadrature", factor * quad.value)
    return QuadResult(value, abs(factor) * quad.error, quad.nodes)
