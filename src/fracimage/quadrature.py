"""Direct numerical evaluation of the fractional integral operators.

This is the independent oracle for the closed-form images: nothing here
reuses the gamma-product formulas, only the integral definitions (the
quadrature recipes of operators.FAMILIES, never their images). Endpoint
singularities u^a (1-u)^b are absorbed into Gauss-Jacobi weights, so the
evaluated factor of the integrand is smooth and the rules converge
spectrally.

Left-sided integrals substitute t = x*u; right-sided ones t = x/u, mapping
(x, inf) onto (0, 1). The 2F1 kernels (argument 1-u) are split at u = 1/2:
the right half is evaluated by the fast-converging series directly, the
left half through the standard connection formula at 1-u, which turns the
u -> 0 behavior into two more Jacobi-weighted smooth integrals. Each kernel
series is summed once on a rule's whole node array (gauss_2f1_array); the
rest of the integrand stays per-node float arithmetic, so every value is
the one the per-node series gives. Each kernel piece's per-node factor is
memoised per (series, piece, power, rule nodes) in a bounded cache, since
it does not depend on the integrand's other factor: a grid that sweeps x
and the polynomial around one operator sums each series once per rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy

from .errors import (
    DenominatorPoleError,
    DomainError,
    NonConvergedError,
    UnsupportedKernelError,
)
from .gammafns import GammaProduct, gamma_product_eval, is_nonpositive_integer
from .hypergeom import gauss_2f1_array
from .operators import FAMILIES, OperatorSpec

# |diff| <= NOISE_FLOOR * (sum of |weighted terms|) counts as converged: the
# remaining difference is rounding, not discretization. Node accuracy limits
# resolution to ~1e-12 of the L1 mass at high orders, which is what a
# cancelling (e.g. orthogonality) integral stabilizes at.
NOISE_FLOOR = 1e-12
ERROR_FLOOR = 1e-16


@dataclass(frozen=True)
class QuadConfig:
    """Gauss-Jacobi rule configuration.

    node_count is the starting rule size; refinement doubles it up to
    max_refinements times until two consecutive estimates agree within
    tol (relative). Right-sided integrals never truncate the tail: the
    t = x/u substitution maps all of it onto (0, 1)."""

    node_count: int = 64
    tol: float = 1e-10
    max_refinements: int = 6

    def __post_init__(self) -> None:
        if self.node_count < 8:
            raise ValueError(f"node_count must be >= 8, got {self.node_count!r}")
        if self.tol <= 0.0:
            raise ValueError(f"tol must be > 0, got {self.tol!r}")
        if self.max_refinements < 0:
            raise ValueError(
                f"max_refinements must be >= 0, got {self.max_refinements!r}"
            )


DEFAULT_CONFIG = QuadConfig()


class QuadResult(NamedTuple):
    value: float
    error: float
    nodes: int


def roots_jacobi(n: int, alpha: float, beta: float):
    """scipy.special.roots_jacobi, imported on the first rule build so that
    work without quadrature never loads scipy."""
    from scipy.special import roots_jacobi as build

    return build(n, alpha, beta)


@lru_cache(maxsize=256)
def _gj_rule(n: int, a0: float, a1: float):
    """Nodes/weights for int_0^1 u^a0 (1-u)^a1 g(u) du ~ scale*sum w g(u),
    and the nodes once more as an array."""
    # scipy computes, then discards, an invalid intermediate when a0+a1 = -1
    with numpy.errstate(invalid="ignore", divide="ignore"):
        t, w = roots_jacobi(n, a1, a0)
    node_array = (1.0 + t) / 2.0
    node_array.flags.writeable = False
    nodes = tuple(node_array.tolist())
    weights = tuple(w.tolist())
    scale = 2.0 ** (-(a0 + a1 + 1.0))
    return nodes, weights, scale, node_array


def quad_endpoint_singular(
    g: Callable[[float], float],
    exponent_at_0: float,
    exponent_at_1: float,
    cfg: QuadConfig = DEFAULT_CONFIG,
    *,
    on_node_array: bool = False,
) -> QuadResult:
    """int_0^1 u^exponent_at_0 (1-u)^exponent_at_1 g(u) du for smooth g.

    Both exponents must exceed -1 (integrability). Nodes are strictly
    interior, so g is never called at 0 or 1. With on_node_array, g takes
    a rule's whole (read-only) node array and returns g at every node."""
    if exponent_at_0 <= -1.0 or exponent_at_1 <= -1.0:
        raise DomainError(
            "weight exponents must be > -1, got "
            f"({exponent_at_0!r}, {exponent_at_1!r})",
            conditions=("exponent_at_0 > -1", "exponent_at_1 > -1"),
        )
    n = cfg.node_count
    prev = None
    for _ in range(cfg.max_refinements + 1):
        nodes, weights, scale, node_array = _gj_rule(n, exponent_at_0, exponent_at_1)
        values = g(node_array) if on_node_array else map(g, nodes)
        terms = [w * gu for w, gu in zip(weights, values, strict=True)]
        est = scale * math.fsum(terms)
        l1 = scale * math.fsum(abs(t) for t in terms)
        if prev is not None:
            diff = abs(est - prev)
            if diff <= cfg.tol * max(abs(est), abs(prev)) or diff <= NOISE_FLOOR * l1:
                return QuadResult(est, max(diff, ERROR_FLOOR * l1), n)
        prev = est
        n *= 2
    raise NonConvergedError(
        f"quadrature did not stabilize within {cfg.max_refinements} "
        f"doublings from {cfg.node_count} nodes"
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
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-node prefactors and points u of one 2F1 kernel piece on a rule's
    nodes v (given as bytes), with K = 2F1(series; .):

        whole       K(1-u)              at u = v
        right_half  u^power K(1-u)      at u = 1 - v/2
        left_half   (1-u)^power K(u)    at u = v/2

    The piece's integrand at u is prefactor * s(u). None of this depends
    on s, so the points of a grid that share an operator and a rule (every
    x, polynomial and power) sum each series once. A prefactor is formed
    as (u^power * K) before s(u) multiplies it, the order of the unmemoised
    expression, so the values are bit for bit the same."""
    v = numpy.frombuffer(node_bytes)
    if piece == "whole":
        u, z, base = v, 1.0 - v, None
    elif piece == "right_half":
        u = 1.0 - v / 2.0
        z, base = 1.0 - u, u
    else:
        u = v / 2.0
        z, base = u, 1.0 - u
    pre = gauss_2f1_array(*series, z).tolist()
    if base is not None:
        pre = [b**power * k for b, k in zip(base.tolist(), pre)]
    return tuple(pre), tuple(u.tolist())


def _kernel_quad(
    kernel: tuple[float, float, float],
    a0: float,
    b0: float,
    s: Callable[[float], float],
    cfg: QuadConfig,
) -> QuadResult:
    """int_0^1 u^a0 (1-u)^b0 2F1(ka, kb; kc; 1-u) s(u) du.

    Polynomial kernels (ka or kb a nonpositive integer) and near-integer
    exponent differences e = kc-ka-kb go through a single rule; otherwise
    the integral is split at 1/2 and the u -> 0 half is rewritten by the
    2F1 connection formula, so every piece has a pure Jacobi weight."""
    ka, kb, kc = kernel

    def piece(name: str, series=kernel, power: float | None = None):
        def g(v: numpy.ndarray) -> list[float]:
            pre, u = _kernel_piece(series, name, power, v.tobytes())
            return [p * s(ui) for p, ui in zip(pre, u)]

        return g

    if is_nonpositive_integer(ka) or is_nonpositive_integer(kb):
        return quad_endpoint_singular(piece("whole"), a0, b0, cfg, on_node_array=True)
    e = kc - ka - kb
    if abs(e - round(e)) < 1e-9:
        # logarithmic endpoint case: no pure-power split exists; fall back
        # to the single rule and let refinement do the work
        return quad_endpoint_singular(piece("whole"), a0, b0, cfg, on_node_array=True)

    coeff_a = _connection_coefficient((kc, e), (kc - ka, kc - kb))
    coeff_b = _connection_coefficient((kc, -e), (ka, kb))

    # right half, u = 1 - v/2 in (1/2, 1): series argument v/2 < 1/2
    right = quad_endpoint_singular(
        piece("right_half", power=a0), b0, 0.0, cfg, on_node_array=True
    )
    value = 0.5 ** (b0 + 1.0) * right.value
    error = 0.5 ** (b0 + 1.0) * right.error
    nodes = right.nodes

    # left half, u = v/2 in (0, 1/2): K(u) = coeff_a*phi1(u) + coeff_b*u^e*phi2(u),
    # one connection-formula series at argument u each
    if coeff_a != 0.0:
        part = quad_endpoint_singular(
            piece("left_half", (ka, kb, 1.0 - e), b0), a0, 0.0, cfg, on_node_array=True
        )
        value += coeff_a * 0.5 ** (a0 + 1.0) * part.value
        error += abs(coeff_a) * 0.5 ** (a0 + 1.0) * part.error
        nodes = max(nodes, part.nodes)
    if coeff_b != 0.0:
        if a0 + e <= -1.0:
            raise DomainError(
                f"kernel split exponent {a0 + e!r} is not integrable",
                conditions=("a0 + (kc-ka-kb) > -1",),
            )
        part = quad_endpoint_singular(
            piece("left_half", (kc - ka, kc - kb, 1.0 + e), b0),
            a0 + e, 0.0, cfg, on_node_array=True,
        )
        value += coeff_b * 0.5 ** (a0 + e + 1.0) * part.value
        error += abs(coeff_b) * 0.5 ** (a0 + e + 1.0) * part.error
        nodes = max(nodes, part.nodes)
    return QuadResult(value, error, nodes)


def operator_apply(
    op: OperatorSpec,
    f: Callable[[float], float],
    x: float,
    cfg: QuadConfig = DEFAULT_CONFIG,
    power_at_zero: float = 0.0,
    power_at_inf: float = 0.0,
) -> QuadResult:
    """Numerically apply an integral-family operator to f at x.

    power_at_zero (left-sided) or power_at_inf (right-sided) declares the
    leading power behavior of f so it can be folded into the quadrature
    weight exactly: the evaluated factor f(t) t^(-power) should be smooth.
    For f(t) = t^(tau-1) pass tau-1 and the rule integrates it to machine
    accuracy.

    Derivative families and the full two-series kernel regime have no
    supported quadrature and raise UnsupportedKernelError; the exact
    finite-sum oracle covers them instead."""
    if x <= 0.0:
        raise DomainError(
            f"operator_apply needs x > 0, got {x!r}", conditions=("x > 0",)
        )
    spec = FAMILIES[op.family]
    recipe = spec.quadrature
    if recipe is None:
        raise UnsupportedKernelError(
            f"{op.family.value} has no direct quadrature; use the derivative "
            "composition oracle"
        )
    right = spec.right
    named = op.named_params()
    order = named[recipe.order]
    if order <= 0.0:
        raise DomainError(
            f"operator order must be positive: {recipe.order} = {order!r}",
            conditions=(f"{recipe.order} > 0",),
        )
    if recipe.single_series and all(named[p] != 0.0 for p in recipe.single_series):
        first, second = recipe.single_series
        raise UnsupportedKernelError(
            f"{'right' if right else 'left'} integral quadrature needs "
            f"{first} = 0 or {second} = 0 (two-series kernel regime is out "
            "of scope)"
        )
    s = power_at_inf if right else power_at_zero

    def smooth(u: float) -> float:
        t = x / u if right else x * u
        return f(t) * t**-s

    # |x - t|^(order - 1) becomes the weight (1 - u)^(order - 1)
    w0, w1 = recipe.u_power(*op.params, s), order - 1.0
    if recipe.kernel is None:
        quad = quad_endpoint_singular(smooth, w0, w1, cfg)
    else:
        quad = _kernel_quad(recipe.kernel(*op.params), w0, w1, smooth, cfg)
    factor = x ** recipe.x_power(*op.params, s) / math.gamma(order)
    return QuadResult(factor * quad.value, abs(factor) * quad.error, quad.nodes)
