"""Gauss-Jacobi rules built with numpy alone.

The n-point rule for the weight (1-x)^alpha (1+x)^beta on [-1, 1]
(alpha, beta > -1) has the zeros of the Jacobi polynomial P_n as nodes.
Each zero is found in the angle phi from the end nearer to it: the zeros
with x >= 0 as zeros of P_n^(alpha,beta)(cos phi), the others as zeros of
the mirrored polynomial P_n^(beta,alpha)(cos phi), x = -cos phi. On each
half, with (a, b) the half's parameters and s = 1 - cos phi =
2 sin^2(phi/2), R_k = P_k(1-s) / P_k(1) follows the three-term recurrence
written for its differences D_k = R_k - R_(k-1):

    D_(k+1) = g_k D_k - c_k s R_k,    R_(k+1) = R_k + D_(k+1),    R_0 = 1.

At s = 0 this is exact (R = 1, D = 0) however g_k and c_k round, so the
nodes next to either end keep their full relative precision in s at any
endpoint exponent; a recurrence in x loses it to the rounding of x.

The initial guesses are the asymptotic zeros that Hale and Townsend use
(SIAM J. Sci. Comput. 35, 2013): Gatteschi's Bessel-zero formula for the
quarter of the nodes nearest each end and the Gatteschi-Pittaluga formula
elsewhere. The Jacobi differential equation gives every higher derivative
of P_n from P_n and dP_n/dphi, so one recurrence sweep yields a
fourth-order step to each zero and dP_n/dphi at the stepped node; one
sweep is usually enough. The weights come from the derivative formula
w = C_n / (dP_n/dphi)^2, with C_n taken as a product of ratios near 1, and
the rule is scaled to the weight's exact mass 2^(alpha+beta+1)
B(alpha+1, beta+1). Where the asymptotic guesses do not converge (large
exponents), a sign scan of P_n on a grid of angles brackets every zero.

The recurrence steps are the same for every node, so rules of several
sizes and weights share one sweep over their joined nodes, each node with
its own half's coefficients.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy

from .errors import NonConvergedError

# Sweeps stop once no node moved by more than this fraction of 1/n (the
# node spacing is about pi/n): the neglected fifth-order terms of the step
# and fourth-order terms of dP_n/dphi are then below rounding.
STEP_TOL = 1e-4
MAX_SWEEPS = 8
# Above this exponent the asymptotic guesses are too far off to converge
# (they settle on the wrong zeros from exponent 30 on); the scan is used.
ASYMPTOTIC_LIMIT = 10.0
# Rows of the per-node coefficient tables built at a time.
BLOCK = 32


def gauss_jacobi(rules) -> list:
    """[(x, w)] of the Gauss-Jacobi rule of each (n, alpha, beta) in rules
    (distinct), for the weight (1-x)^alpha (1+x)^beta on [-1, 1], nodes
    ascending.

    Raises NonConvergedError if the zeros cannot be found, which takes
    exponents in the hundreds together with thousands of nodes."""
    easy = [r for r in rules if max(r[1], r[2]) <= ASYMPTOTIC_LIMIT]
    found = _refine(easy, _asymptotic_guesses) if easy else {}
    for rule in rules:
        if rule not in found:
            found.update(_refine([rule], _scanned_guesses))
        if rule not in found:
            raise NonConvergedError(
                f"Gauss-Jacobi nodes for exponents ({rule[1]!r}, {rule[2]!r}) did "
                f"not converge at {rule[0]} nodes"
            )
    return [found[rule] for rule in rules]


@lru_cache(maxsize=64)
def _bessel_zeros(a: float, count: int) -> numpy.ndarray:
    """The first count positive zeros of the Bessel function J_a, a > -1,
    read-only (memoised: the weights of one kernel quadrature share an
    exponent 0).

    McMahon's expansion; for a <= 5 the first three, where it is poor, are
    refined by Newton on the entire function sum_m (-w/4)^m / (m! (a+1)_m),
    w = z^2, the first from the Rayleigh bound 2 (a+1)(a+3) when a < 0."""
    k = numpy.arange(1.0, count + 1.0)
    mu = 4.0 * a * a
    b = (k + a / 2.0 - 0.25) * math.pi
    e = 8.0 * b
    z = (b - (mu - 1.0) / e - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * e**3)
         - 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * e**5))
    if a <= 5.0:
        w = z[:3] ** 2
        if a < 0.0:
            w[0] = 2.0 * (a + 1.0) * (a + 3.0)
        m = numpy.arange(1.0, 33.0)
        for _ in range(3):
            terms = numpy.cumprod(-w[:, None] / (4.0 * m * (a + m)), axis=1)
            w = w - w * (1.0 + terms.sum(axis=1)) / (terms * m).sum(axis=1)
        z[:3] = numpy.sqrt(w)
    z.flags.writeable = False
    return z


def _zero_angles(n: int, a: float, b: float, j: numpy.ndarray) -> numpy.ndarray:
    """Asymptotic phi of the zeros of P_n^(a,b)(cos phi), ascending, given
    the Bessel zeros j of J_a for the quarter nearest phi = 0."""
    rho = n + (a + b + 1.0) / 2.0
    t = (numpy.arange(1.0, n + 1.0) + a / 2.0 - 0.25) * math.pi / rho
    tan = numpy.tan(t / 2.0)
    phi = t + ((0.25 - a * a) / tan - (0.25 - b * b) * tan) / (4.0 * rho * rho)
    j = j[: min(n, max(3, n // 4))]
    nu = math.sqrt(rho * rho + (1.0 - a * a - 3.0 * b * b) / 12.0)
    phi[: j.size] = j / nu * (
        1.0 - (4.0 - a * a - 15.0 * b * b) / (720.0 * nu**4) * (j * j / 2.0 + a * a - 1.0)
    )
    return phi


def _asymptotic_guesses(n: int, alpha: float, beta: float):
    """The angles of the zeros with x >= 0 (from the alpha end) and with
    x < 0 (from the beta end)."""
    count = max(32, n // 4)  # one memo entry serves rules of up to 128 nodes
    near = _zero_angles(n, alpha, beta, _bessel_zeros(alpha, count))
    split = int(numpy.count_nonzero(near <= math.pi / 2.0))
    return near[:split], _zero_angles(n, beta, alpha, _bessel_zeros(beta, count))[: n - split]


def _scanned_guesses(n: int, alpha: float, beta: float):
    """The angles of the zeros bracketed by the signs of P_n on a grid fine
    enough to separate them, split as _asymptotic_guesses does. Each half
    of the grid is evaluated from its own end, as the nodes are, so that
    neither end's normalisation underflows the other's values."""
    points = 4 * (n + int(alpha + beta) + 4)
    theta = numpy.linspace(0.0, math.pi, points + 2)
    far = theta[1:-1] > math.pi / 2.0
    phi = numpy.where(far, math.pi - theta[1:-1], theta[1:-1])
    r, _ = _recurrence(
        2.0 * numpy.sin(phi / 2.0) ** 2, far.astype(int),
        _coefficients([(alpha, beta)], n), {n: [slice(None)]},
    )
    # P_n(x) = (-1)^n P_n^(beta,alpha)(-x), P_n(1) > 0, sign P_n(-1) = (-1)^n
    odd = n % 2 == 1
    sign = numpy.concatenate(([False], numpy.signbit(r) ^ (far & odd), [odd]))
    cross = numpy.flatnonzero(sign[1:] != sign[:-1])
    zeros = (theta[cross] + theta[cross + 1]) / 2.0
    near = zeros <= math.pi / 2.0
    return zeros[near], math.pi - zeros[~near][::-1]


def _coefficients(weights, n: int):
    """(g, c) tables of shape (n, 2 len(weights)): the difference
    recurrence's coefficients for steps k = 0..n-1; columns 2i and 2i+1 for
    the halves of weights[i] = (alpha, beta) with parameters (alpha, beta)
    and (beta, alpha)."""
    k = numpy.arange(1.0, n)
    g, c = numpy.zeros((n, 2 * len(weights))), numpy.empty((n, 2 * len(weights)))
    halves = [params for alpha, beta in weights for params in ((alpha, beta), (beta, alpha))]
    for col, (a, b) in enumerate(halves):
        s = a + b
        g[1:, col] = k * (k + b) * (2 * k + s + 2) / ((k + s + 1) * (2 * k + s) * (k + a + 1))
        c[1:, col] = (2 * k + s + 1) * (2 * k + s + 2) / (2 * (k + s + 1) * (k + a + 1))
        c[0, col] = (s + 2) / (2 * (a + 1))
    return g, c


def _recurrence(s, column, coefficients, stops):
    """R_n and D_n at every node: stops maps each degree n to the slices of
    nodes that stop there; nodes of a smaller rule run on harmlessly."""
    g_table, c_table = coefficients
    r, d = numpy.ones(s.size), numpy.zeros(s.size)
    r_n, d_n, t = numpy.empty(s.size), numpy.empty(s.size), numpy.empty(s.size)
    k = 0
    for stop in sorted(stops):
        while k < stop:
            end = min(stop, k + BLOCK)
            for g, cs in zip(g_table[k:end, column], c_table[k:end, column] * s):
                numpy.multiply(cs, r, out=t)
                d *= g
                d -= t
                r += d
            k = end
        for part in stops[stop]:
            r_n[part], d_n[part] = r[part], d[part]
    return r_n, d_n


def _refine(rules, guesses) -> dict:
    """Steps from the guesses to the zeros of every rule in one sweep, then
    the rules whose steps settle on n distinct zeros, by (n, alpha, beta)."""
    kept = []
    for rule in rules:
        near, far = guesses(*rule)
        if near.size + far.size == rule[0]:
            kept.append((rule, (near, far)))
    if not kept:
        return {}
    rules, groups = zip(*kept)
    weights = list(dict.fromkeys((alpha, beta) for _, alpha, beta in rules))
    counts = [part.size for pair in groups for part in pair]
    phi = numpy.concatenate([part for pair in groups for part in pair])
    # each node's column in the coefficient tables: its weight and half
    column = numpy.repeat([2 * weights.index((alpha, beta)) + half
                           for _, alpha, beta in rules for half in (0, 1)], counts)
    half = column % 2
    sizes = [n for n, _, _ in rules]
    deg = numpy.repeat(numpy.asarray(sizes, float), sizes)
    alpha = numpy.repeat([alpha for _, alpha, _ in rules], sizes)
    beta = numpy.repeat([beta for _, _, beta in rules], sizes)
    a, b = numpy.where(half == 0, alpha, beta), numpy.where(half == 0, beta, alpha)
    parts = [slice(end - n, end) for n, end in zip(sizes, numpy.cumsum(sizes))]
    stops: dict = {}
    for n, part in zip(sizes, parts):
        stops.setdefault(n, []).append(part)
    coefficients = _coefficients(weights, max(sizes))
    total = alpha + beta
    lam = deg * (deg + total + 1.0)
    # each rule is taken at the sweep its own nodes settle in, so that it
    # does not depend on the rules built with it
    done: dict = {}
    with numpy.errstate(all="ignore"):
        for _ in range(MAX_SWEEPS):
            s = 2.0 * numpy.sin(phi / 2.0) ** 2
            r, d = _recurrence(s, column, coefficients, stops)
            sin = numpy.sin(phi)
            # dP_n/dphi = n P_n(1) q / sin(phi); the differential equation
            # P'' = ode P' - lam P gives the higher derivatives as ratios r_i
            # to dP_n/dphi
            q = 2.0 * (deg + b) / (2.0 * deg + total) * d - s * r
            ratio = r * sin / (deg * q)
            ode = ((total + 1.0) * s - (2.0 * a + 1.0)) / sin
            ode1 = (2.0 * a + 1.0 + (b - a) * s) / (sin * sin)
            ode2 = (b - a - 2.0 * (1.0 - s) * ode1) / sin
            r2 = ode - lam * ratio
            r3 = ode1 + ode * r2 - lam
            r4 = ode2 + 2.0 * ode1 * r2 + ode * r3 - lam * r2
            # the zero of P + P' h + P'' h^2/2 + ... by series reversion
            c2, c3, c4 = r2 / 2.0, r3 / 6.0, r4 / 24.0
            u = -ratio
            step = u * (1.0 + u * (-c2 + u * (2.0 * c2 * c2 - c3
                                            + u * (5.0 * c2 * c3 - 5.0 * c2**3 - c4))))
            phi = phi + step
            moved = numpy.abs(step) * deg
            settled = [(rule, part) for rule, part in zip(rules, parts)
                       if rule not in done and numpy.max(moved[part]) <= STEP_TOL]
            if settled:
                # dP_n/dphi at the stepped node over its value at the old one
                grow = 1.0 + step * (r2 + step * (r3 / 2.0 + step * r4 / 6.0))
                inverse = sin / (deg * q * grow)
                for rule, part in settled:
                    done[rule] = _rule(phi[part], half[part], inverse[part], *rule)
            if len(done) == len(rules):
                break
    return {rule: found for rule, found in done.items() if found is not None}


def _rule(phi, half, inverse, n, alpha, beta):
    """(x, w) of one rule, nodes ascending: the zeros with x < 0 in the
    order found (phi ascending from x = -1), then those with x >= 0
    reversed, with positive weights scaled to the weight's exact mass.
    None unless the nodes are n distinct points of (-1, 1) and the weights
    finite and positive: zeros of P_n lie at least about 7/n^2 apart in x,
    two steps that settled on one zero do not."""
    near = half == 0
    x = numpy.concatenate((-numpy.cos(phi[~near]), numpy.cos(phi[near])[::-1]))
    if not (-1.0 < x[0] and x[-1] < 1.0 and numpy.all(numpy.diff(x) > 1e-3 / (n * n))):
        return None
    w = numpy.concatenate((
        _half_weights(inverse[~near], n, beta, alpha),
        _half_weights(inverse[near], n, alpha, beta)[::-1],
    ))
    total = math.fsum(w.tolist())
    if not (0.0 < total < math.inf and numpy.all(w > 0.0)):
        return None
    mass = 2.0 ** (alpha + beta + 1.0) * _beta(alpha + 1.0, beta + 1.0)
    return x, w * (mass / total)


def _half_weights(inverse, n: int, a: float, b: float) -> numpy.ndarray:
    """C_n / (dP_n/dphi)^2 on the half with parameters (a, b), given inverse
    proportional to 1 / (dP_n/dphi), up to a factor the whole rule shares.

    C_n / P_n(1)^2 is then (1+b)/(1+a) prod_{k=2..n} k(k+b) / ((k+a)(k+a+b)),
    summed as logs of factors near 1; inverse is scaled to its largest
    entry so that neither its square nor the constant leaves the float
    range."""
    if inverse.size == 0:
        return inverse
    k = numpy.arange(2.0, n + 1.0)
    log_c = math.log((1.0 + b) / (1.0 + a)) + float(
        numpy.log1p(-a * (2.0 * k + a + b) / ((k + a + b) * (k + a))).sum()
    )
    top = float(numpy.max(numpy.abs(inverse)))
    return (inverse / top) ** 2 * math.exp(log_c + 2.0 * math.log(top))


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
