"""Direct numerical evaluation of the fractional integral operators.

This is the independent oracle for the closed-form images: nothing here
reuses the gamma-product formulas, only the integral definitions (the
quadrature recipes of operators.FAMILIES, never their images). Endpoint
singularities u^a (1-u)^b are absorbed into Gauss-Jacobi weights, so the
evaluated factor of the integrand is smooth and the rules converge
spectrally.

The rules come from gaussjacobi, built with numpy alone: nodes keep full
relative precision at both ends and weights are good to about 1e-14 even
at exponents near -1. A split kernel's pieces' first rules are built in
one recurrence sweep; every rule is memoised per weight, with its two
null rules.

A quadrature's error is read off its own rule by those null rules
(Berntsen and Espelid, ACM TOMS 17, 1991): g's discrete coefficients on
the weight's orthogonal polynomials of degrees n-1 and n-2. A rule whose
estimate misses both the target and the rounding noise is doubled.

Left-sided integrals substitute t = x*u; right-sided ones t = x/u, mapping
(x, inf) onto (0, 1). The 2F1 kernels (argument 1-u) are split at u = 1/2:
the right half is evaluated by the fast-converging series directly, the
left half through the standard connection formula at 1-u, which turns the
u -> 0 behavior into two more Jacobi-weighted smooth integrals. Where the
formula has a pole (a logarithmic kernel), splits beside it are interpolated.

An operand is t^power g(t): its leading power goes into the weight and
is never evaluated at a node, so the caller's g is only the smooth
factor (1 for a monomial, the polynomial for an identity). Every
integrand is evaluated on a rule's whole node array: the kernel series
by gauss_2f1_array, the substitution and g by numpy's elementwise
arithmetic, which rounds as Python floats do. The only node powers left
are a kernel piece's u^a0 or (1-u)^b0; numpy's vectorised power may
differ from libm pow in the last bit, so they go through node_power,
which applies Python's float ** per node. Every value is thus the one
the per-node expression gives. Each kernel piece's node factor is
memoised per (series, piece, power, rule nodes) in a bounded cache,
since it does not depend on the integrand's other factor: a grid that
sweeps x and the polynomial around one operator sums each series once
per rule. numpy is imported on the first rule build, so work without
quadrature never loads it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import (
    DenominatorPoleError,
    DomainError,
    NonConvergedError,
    UnsupportedKernelError,
)
from .gammafns import GammaProduct, check_finite, gamma_product_eval, is_nonpositive_integer
from .hypergeom import gauss_2f1_array
from .operators import FAMILIES, OperatorSpec

if TYPE_CHECKING:
    import numpy

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
# the larger null-rule coefficient, times this, is a rule's error estimate
NULL_SAFETY = 10.0
# the relative error target of every quadrature entry point
DEFAULT_TOL = 1e-10


class QuadResult(NamedTuple):
    value: float
    error: float
    nodes: int


def roots_jacobi(n: int, weights: list[tuple[float, float]]):
    """[(x, w)] of the n-point Gauss-Jacobi rule for each weight
    (1-x)^alpha (1+x)^beta on [-1, 1] in weights, given as (alpha, beta),
    all built in one recurrence sweep (gaussjacobi.gauss_jacobi); each
    rule comes out as it would alone. numpy is imported on the first rule
    build, so work without quadrature never loads it."""
    from .gaussjacobi import gauss_jacobi

    return gauss_jacobi(n, weights)


def node_power(base: numpy.ndarray, exponent: float) -> numpy.ndarray:
    """base**exponent at every node, as Python's float ** (libm pow) gives
    it node by node; numpy.power can differ from it in the last bit."""
    import numpy

    return numpy.fromiter(
        (b**exponent for b in base.tolist()), float, count=base.size
    )


@lru_cache(maxsize=128)
def _gj_rules(a0: float, a1: float) -> dict:
    """The rules built so far for the weight u^a0 (1-u)^a1, by node count."""
    return {}


def _null_rows(nodes: numpy.ndarray, weights: numpy.ndarray) -> numpy.ndarray:
    """Rows N_1, N_2 with N_k @ g(nodes) the rule's discrete coefficient of g
    on p_(n-k), the weight's orthogonal polynomial, scaled as weights @ g
    is (sum N_k^2 / w = sum w); N_k annihilates every lower degree. By
    Christoffel-Darboux, w_i p_(n-1)(t_i) is proportional to
    (-1)^i sqrt((1-t_i^2) w_i), and the three-term recurrence at a zero of
    p_n gives p_(n-2)(t_i) as (t_i - b_(n-1)) p_(n-1)(t_i) up to a
    constant, b_(n-1) being the mean of t under w p_(n-1)^2. At the nodes
    u = (1+t)/2, 1-t^2 is 4u(1-u), and the mean is taken in u."""
    import numpy

    h = nodes * (1.0 - nodes)
    first = numpy.sqrt(h * weights)
    first[1::2] *= -1.0
    second = (nodes - (nodes * h).sum() / h.sum()) * first
    mass = weights.sum()
    return numpy.stack([row * math.sqrt(mass / (row * row / weights).sum())
                        for row in (first, second)])


def _gj_build(weights, size: int) -> None:
    """Builds, in one sweep, the rule of size nodes for every weight
    (a0, a1) that lacks it."""
    wanted = [w for w in dict.fromkeys(weights) if size not in _gj_rules(*w)]
    if not wanted:
        return
    # u^e0 (1-u)^e1 is (1-t)^e1 (1+t)^e0 up to scale, at u = (1+t)/2
    for (e0, e1), (t, w) in zip(wanted, roots_jacobi(size, [(e1, e0) for e0, e1 in wanted])):
        nodes = (1.0 + t) / 2.0
        null = _null_rows(nodes, w)
        for array in (nodes, w, null):
            array.flags.writeable = False
        _gj_rules(e0, e1)[size] = (nodes, w, 2.0 ** (-(e0 + e1 + 1.0)), null)


def _gj_rule(n: int, a0: float, a1: float):
    """Read-only node and weight arrays, the scale and the read-only 2 x n
    null rows (_null_rows) of the rule
    int_0^1 u^a0 (1-u)^a1 g(u) du ~ scale * sum w g(u)."""
    rules = _gj_rules(a0, a1)
    if n not in rules:
        _gj_build([(a0, a1)], n)
    return rules[n]


def quad_endpoint_singular(
    g: Callable[[numpy.ndarray], numpy.ndarray],
    exponent_at_0: float,
    exponent_at_1: float,
    tol: float = DEFAULT_TOL,
) -> QuadResult:
    """int_0^1 u^exponent_at_0 (1-u)^exponent_at_1 g(u) du for smooth g.

    Both exponents must exceed -1 (integrability). g takes a rule's whole
    read-only node array and returns g at every node. Nodes are strictly
    interior, so g never sees 0 or 1. Raises OverflowError if g is not
    finite at a node, and ValueError unless tol > 0.

    A rule is accepted once its null-rule error estimate is within tol
    (relative) or within the rounding noise of its L1 mass; otherwise the
    rule is doubled. Right-sided integrals never truncate the tail: the
    t = x/u substitution maps all of it onto (0, 1)."""
    import numpy

    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    if exponent_at_0 <= -1.0 or exponent_at_1 <= -1.0:
        raise DomainError(
            f"weight exponents must be > -1, got ({exponent_at_0!r}, {exponent_at_1!r})"
        )
    for n in (NODE_COUNT << i for i in range(MAX_REFINEMENTS + 1)):
        nodes, weights, scale, null = _gj_rule(n, exponent_at_0, exponent_at_1)
        with numpy.errstate(all="ignore"):
            values = g(nodes)
            terms = (weights * values).tolist()
        # the weights are positive and finite: a non-finite value makes this so
        l1 = scale * math.fsum(map(abs, terms))
        if not math.isfinite(l1):
            raise OverflowError(f"the integrand is not finite on the {n}-node rule")
        est = scale * math.fsum(terms)
        error = NULL_SAFETY * scale * float(abs((null * values).sum(axis=1)).max())
        if error <= tol * abs(est) or error <= NOISE_FLOOR * l1:
            return QuadResult(est, max(error, ERROR_FLOOR * l1), n)
    raise NonConvergedError(
        f"quadrature did not stabilize within {NODE_COUNT << MAX_REFINEMENTS} "
        f"nodes ({MAX_REFINEMENTS} doublings from {NODE_COUNT})"
    )


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
    node_bytes: bytes,
) -> tuple[numpy.ndarray, numpy.ndarray]:
    """Read-only arrays of the prefactors and points u of one 2F1 kernel
    piece on a rule's nodes v (given as bytes), with K = 2F1(series; .):

        whole       K(1-u)              at u = v
        right_half  u^power K(1-u)      at u = 1 - v/2
        left_half   (1-u)^power K(u)    at u = v/2

    The piece's integrand at u is prefactor * s(u). None of this depends
    on s, so the points of a grid that share an operator and a rule (every
    x, polynomial and power) sum each series once. A prefactor is formed
    as (u^power * K) before s(u) multiplies it, the order of the unmemoised
    expression, so the values are bit for bit the same."""
    import numpy

    v = numpy.frombuffer(node_bytes)
    if piece == "whole":
        u, z, base = v, 1.0 - v, None
    elif piece == "right_half":
        u = 1.0 - v / 2.0
        z, base = 1.0 - u, u
    else:
        u = v / 2.0
        z, base = u, 1.0 - u
    pre = gauss_2f1_array(*series, z)
    if base is not None:
        pre = node_power(base, power) * pre
    pre.flags.writeable = False
    u.flags.writeable = False
    return pre, u


def _kernel_quad(
    kernel: tuple[float, float, float],
    a0: float,
    b0: float,
    s: Callable[[numpy.ndarray], numpy.ndarray],
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
        def g(v: numpy.ndarray) -> numpy.ndarray:
            pre, u = _kernel_piece(series, name, power, v.tobytes())
            return pre * s(u)

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
    # every piece's first rule comes out of one sweep
    _gj_build([(w, 0.0) for _, _, w in pieces if w > -1.0], NODE_COUNT)
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
    g: Callable[[numpy.ndarray], numpy.ndarray],
    x: float,
    tol: float = DEFAULT_TOL,
    power: float = 0.0,
) -> QuadResult:
    """Numerically apply an integral-family operator to t^power g(t) at x.

    power is the operand's leading power at t -> 0 (left-sided families)
    or at t -> infinity (right-sided); it goes into the quadrature weight
    exactly and is never evaluated at a node. g, the smooth factor, takes
    an array of points t and returns g at each of them. For the monomial
    t^(tau-1) pass g = 1 and power = tau-1, and the rule integrates it to
    machine accuracy.

    Derivative families and the full two-series kernel regime have no
    supported quadrature and raise UnsupportedKernelError; the exact
    finite-sum oracle covers them instead."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"operator_apply needs x > 0 and finite, got {x!r}")
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

    def smooth(u: numpy.ndarray) -> numpy.ndarray:
        return g(x / u if right else x * u)

    # |x - t|^(order - 1) becomes the weight (1 - u)^(order - 1)
    w0, w1 = recipe.u_power(*op.params, power), order - 1.0
    if recipe.kernel is None:
        quad = quad_endpoint_singular(smooth, w0, w1, tol)
    else:
        quad = _kernel_quad(recipe.kernel(*op.params), w0, w1, smooth, tol)
    x_power = recipe.x_power(*op.params, power)
    try:
        factor = x**x_power / math.gamma(order)
    except OverflowError:
        # Gamma(order) overflows past order ~171.6; only then take the
        # factor in log space, which costs a few ulps at smaller orders
        inverse = gamma_product_eval(GammaProduct((), (order,)))
        factor = inverse.times_power(x, x_power).to_float()
    value = check_finite("quadrature", factor * quad.value)
    return QuadResult(value, abs(factor) * quad.error, quad.nodes)
