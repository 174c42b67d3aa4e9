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

The recurrence steps are the same for every node, so the rules of one
size for several weights share one sweep over their joined nodes, each
node with its own half's coefficients. Each set-up stage (guesses, tables,
settle test, weights) runs once per sweep on all the nodes, each node's
arithmetic that of its rule built alone, so a rule comes out bit for bit
the same whatever it is built with.
"""

from __future__ import annotations

import math
import sys

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


def gauss_jacobi(n: int, weights) -> list:
    """[(x, w)] of the n-point Gauss-Jacobi rule of each (alpha, beta) in
    weights (distinct), for the weight (1-x)^alpha (1+x)^beta on [-1, 1],
    nodes ascending.

    Raises NonConvergedError if the zeros cannot be found, which takes
    exponents in the hundreds together with thousands of nodes, and
    OverflowError, before any guess is formed, if the factor
    2^(alpha+beta+1) of the weight's mass is past the double range."""
    for alpha, beta in weights:
        if alpha + beta + 1.0 >= sys.float_info.max_exp:
            raise OverflowError(
                f"Gauss-Jacobi weight (1-x)^{alpha!r} (1+x)^{beta!r}: its mass "
                "factor 2^(alpha+beta+1) is past the double range"
            )
    easy = [pair for pair in weights if max(pair) <= ASYMPTOTIC_LIMIT]
    found = _refine(n, easy, _asymptotic_guesses) if easy else {}
    for alpha, beta in weights:
        if (alpha, beta) not in found:
            found.update(_refine(n, [(alpha, beta)], _scanned_guesses))
        if (alpha, beta) not in found:
            raise NonConvergedError(
                f"Gauss-Jacobi nodes for exponents ({alpha!r}, {beta!r}) did "
                f"not converge at {n} nodes"
            )
    return [found[pair] for pair in weights]


def _halves(weights):
    """(a, b) arrays over the halves of the weights: rows 2i and 2i+1 for
    weights[i] = (alpha, beta), the zeros from the beta end (parameters
    (beta, alpha)) and those from the alpha end ((alpha, beta))."""
    return numpy.array([(beta, alpha, alpha, beta) for alpha, beta in weights],
                       float).reshape(-1, 2).T


def _bessel_zeros(k: numpy.ndarray, a: numpy.ndarray) -> numpy.ndarray:
    """The k-th positive zero of the Bessel function J_a, a > -1,
    elementwise.

    McMahon's expansion; for a <= 5 the first three, where it is poor, are
    refined by Newton on the entire function sum_m (-w/4)^m / (m! (a+1)_m),
    w = z^2, the first from the Rayleigh bound 2 (a+1)(a+3) when a < 0."""
    mu = 4.0 * a * a
    mu1 = mu - 1.0
    b = (k + a / 2.0 - 0.25) * math.pi
    e = 8.0 * b
    z = (b - mu1 / e - 4.0 * mu1 * (7.0 * mu - 31.0) / (3.0 * e**3)
         - 32.0 * mu1 * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * e**5))
    low = numpy.flatnonzero((k <= 3.0) & (a <= 5.0))
    a = a[low]
    w = numpy.where((k[low] == 1.0) & (a < 0.0), 2.0 * (a + 1.0) * (a + 3.0), z[low] ** 2)
    m = numpy.arange(1.0, 33.0)
    ratio = 4.0 * m * (a[:, None] + m)
    for _ in range(3):
        terms = numpy.multiply.accumulate(-w[:, None] / ratio, axis=1)
        w = w - w * (1.0 + terms.sum(axis=1)) / (terms * m).sum(axis=1)
    z[low] = numpy.sqrt(w)
    return z


def _asymptotic_guesses(n, weights):
    """(weights, phi, half): the asymptotic angles of the n zeros of each
    weight's rule in ascending x, each with its row in _halves(weights).
    Each half's n angles are formed; the alpha half keeps the split nearest
    its end, split the number of them at phi <= pi/2, and the beta half its
    n - split."""
    a, b = _halves(weights)
    rho = n + (a + b + 1.0) / 2.0
    nu = numpy.sqrt(rho * rho + (1.0 - a * a - 3.0 * b * b) / 12.0)
    nu4 = numpy.array([v**4 for v in nu.tolist()])  # Python's pow, not numpy's
    up = numpy.arange(1.0, n + 1.0)
    k = numpy.tile(numpy.concatenate((up, up[::-1])), len(weights))
    half = numpy.repeat(numpy.arange(a.size), n)
    a, b, rho = a[half], b[half], rho[half]
    t = (k + a / 2.0 - 0.25) * math.pi / rho
    tan = numpy.tan(t / 2.0)
    phi = t + ((0.25 - a * a) / tan - (0.25 - b * b) * tan) / (4.0 * rho * rho)
    # Gatteschi's formula for the quarter of each half nearest its end
    end = numpy.flatnonzero(k <= min(n, max(3, n // 4)))
    j, a, b, at = _bessel_zeros(k[end], a[end]), a[end], b[end], half[end]
    phi[end] = j / nu[at] * (
        1.0 - (4.0 - a * a - 15.0 * b * b) / (720.0 * nu4[at]) * (j * j / 2.0 + a * a - 1.0)
    )
    split = numpy.count_nonzero((phi <= math.pi / 2.0).reshape(-1, n)[1::2], axis=1)
    limit = numpy.column_stack((n - split, split)).ravel()
    keep = numpy.flatnonzero(k <= limit[half])
    return weights, phi[keep], half[keep]


def _scanned_guesses(n, weights):
    """(weights, phi, half) as _asymptotic_guesses gives them for the one
    weight in weights, if the signs of P_n bracket its n zeros on a grid
    fine enough to separate them, else no weight. Each half of the grid is
    evaluated from its own end, as the nodes are, so that neither end's
    normalisation underflows the other's values."""
    [(alpha, beta)] = weights
    grid = numpy.linspace(0.0, math.pi, 4 * (n + int(alpha + beta) + 4) + 2)
    # the inner points in ascending x, so each half's in one run
    theta = grid[-2:0:-1]
    near = theta <= math.pi / 2.0
    r, _ = _recurrence(2.0 * numpy.sin(numpy.where(near, theta, math.pi - theta) / 2.0) ** 2,
                       _coefficients(n, *_halves(weights)), numpy.bincount(near), n)
    # P_n(x) = (-1)^n P_n^(beta,alpha)(-x), P_n(1) > 0, sign P_n(-1) = (-1)^n;
    # the signs back in ascending theta
    odd = n % 2 == 1
    sign = numpy.signbit(r[::-1]) ^ (~near[::-1] & odd)
    cross = numpy.flatnonzero(numpy.diff(numpy.concatenate(([False], sign, [odd]))))
    if cross.size != n:
        return [], None, None
    theta = ((grid[cross] + grid[cross + 1]) / 2.0)[::-1]
    near = theta <= math.pi / 2.0
    return weights, numpy.where(near, theta, math.pi - theta), near.astype(int)


def _coefficients(n, a, b):
    """(g, c) tables of shape (n, len(a)): the difference recurrence's
    coefficients for steps k = 0..n-1, a column for each half with
    parameters (a[i], b[i])."""
    s = a + b
    k = numpy.arange(1.0, n)[:, None]
    u, v, w = 2 * k + s, k + s + 1, k + a + 1
    g, c = numpy.zeros((n, a.size)), numpy.empty((n, a.size))
    g[1:] = k * (k + b) * (u + 2) / (v * u * w)
    c[1:] = (u + 1) * (u + 2) / (2 * v * w)
    c[0] = (s + 2) / (2 * (a + 1))
    return g, c


def _recurrence(s, coefficients, counts, n):
    """R_n and D_n at every node. The nodes come in runs, counts[i] nodes
    with column i of the coefficient tables."""
    g_table, c_table = coefficients
    r, d, t = numpy.ones(s.size), numpy.zeros(s.size), numpy.empty(s.size)
    for k in range(0, n, BLOCK):
        cs = numpy.repeat(c_table[k:k + BLOCK], counts, axis=1)
        cs *= s
        for g, c in zip(numpy.repeat(g_table[k:k + BLOCK], counts, axis=1), cs):
            numpy.multiply(c, r, out=t)
            d *= g
            d -= t
            r += d
    return r, d


def _refine(n, weights, guesses) -> dict:
    """Steps from the guesses to the zeros of every weight's rule in one
    sweep, then the rules whose steps settle on n distinct zeros, by
    (alpha, beta)."""
    weights, phi, half = guesses(n, weights)
    if not weights:
        return {}
    a, b = _halves(weights)
    # a node's half is its column in the coefficient tables
    coefficients = _coefficients(n, a, b)
    counts = numpy.bincount(half, minlength=a.size)
    a, b = a[half], b[half]
    total = a + b
    lam = n * (n + total + 1.0)
    # each rule is taken at the sweep its own nodes settle in, so that it
    # does not depend on the rules built with it
    done: dict = {}
    finished = numpy.zeros(len(weights), bool)
    with numpy.errstate(all="ignore"):
        for _ in range(MAX_SWEEPS):
            s = 2.0 * numpy.sin(phi / 2.0) ** 2
            r, d = _recurrence(s, coefficients, counts, n)
            sin = numpy.sin(phi)
            # dP_n/dphi = n P_n(1) q / sin(phi); the differential equation
            # P'' = ode P' - lam P gives the higher derivatives as ratios r_i
            # to dP_n/dphi
            q = 2.0 * (n + b) / (2.0 * n + total) * d - s * r
            ratio = r * sin / (n * q)
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
            settled = (numpy.abs(step) * n).reshape(-1, n).max(axis=1) <= STEP_TOL
            settled &= ~finished
            if settled.any():
                finished |= settled
                # dP_n/dphi at the stepped node over its value at the old one
                grow = 1.0 + step * (r2 + step * (r3 / 2.0 + step * r4 / 6.0))
                inverse = sin / (n * q * grow)
                nodes = numpy.repeat(settled, n)
                built = [pair for pair, new in zip(weights, settled.tolist()) if new]
                done.update(zip(built, _rules(n, built, phi[nodes], half[nodes] % 2 == 1,
                                              inverse[nodes])))
            if finished.all():
                break
    return {pair: found for pair, found in done.items() if found is not None}


def _rules(n, weights, phi, near, inverse) -> list:
    """(x, w) of each weight's n-point rule, nodes ascending, with positive
    weights scaled to the weight's exact mass, from the phi, near (from the
    alpha end) and inverse of its nodes as _refine holds them. None unless
    the nodes are n distinct points of (-1, 1) and the weights finite and
    positive: zeros of P_n lie at least about 7/n^2 apart in x, two steps
    that settled on one zero do not.

    w = C_n / (dP_n/dphi)^2 on each half with parameters (a, b), inverse
    proportional to 1 / (dP_n/dphi) up to a factor the rule shares: C_n /
    P_n(1)^2 is (1+b)/(1+a) prod_{k=2..n} k(k+b) / ((k+a)(k+a+b)), summed as
    logs of factors near 1; inverse is scaled to the half's largest entry,
    so that neither its square nor the constant leaves the float range."""
    half = 2 * numpy.repeat(numpy.arange(len(weights)), n) + near
    a, b = _halves(weights)
    cos = numpy.cos(phi)
    x = numpy.where(near, cos, -cos).reshape(-1, n)
    ok = ((numpy.diff(x, axis=1) > 1e-3 / (n * n)).all(axis=1)
          & (-1.0 < x[:, 0]) & (x[:, -1] < 1.0))
    k = numpy.arange(2.0, n + 1.0)
    p, q = a[:, None], b[:, None]
    kp = k + p
    logs = numpy.add.reduce(numpy.log1p(-p * (2.0 * k + p + q) / ((kp + q) * kp)), axis=1)
    top = numpy.zeros(a.size)
    numpy.maximum.at(top, half, numpy.abs(inverse))
    filled = numpy.repeat(ok, 2) & (numpy.bincount(half, minlength=a.size) > 0)
    tops, logs, a, b = top.tolist(), logs.tolist(), a.tolist(), b.tolist()
    scale = [0.0] * len(a)
    for h in numpy.flatnonzero(filled).tolist():
        log_c = math.log((1.0 + b[h]) / (1.0 + a[h])) + logs[h]
        scale[h] = math.exp(log_c + 2.0 * math.log(tops[h]))
    w = ((inverse / top[half]) ** 2 * numpy.array(scale)[half]).reshape(-1, n)
    positive = ok & (w > 0.0).all(axis=1)
    found = []
    for (alpha, beta), xs, ws, good in zip(weights, x, w, positive.tolist()):
        total = math.fsum(ws.tolist()) if good else 0.0
        if not 0.0 < total < math.inf:
            found.append(None)
            continue
        mass = 2.0 ** (alpha + beta + 1.0) * _beta(alpha + 1.0, beta + 1.0)
        found.append((xs, ws * (mass / total)))
    return found


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
