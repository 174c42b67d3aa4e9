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
its own half's coefficients, largest rule first so that a smaller rule's
nodes stop updating at its degree. Each set-up stage (guesses, tables,
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


def gauss_jacobi(rules) -> list:
    """[(x, w)] of the Gauss-Jacobi rule of each (n, alpha, beta) in rules
    (distinct), for the weight (1-x)^alpha (1+x)^beta on [-1, 1], nodes
    ascending.

    Raises NonConvergedError if the zeros cannot be found, which takes
    exponents in the hundreds together with thousands of nodes, and
    OverflowError, before any guess is formed, if the factor
    2^(alpha+beta+1) of the weight's mass is past the double range."""
    for _, alpha, beta in rules:
        if alpha + beta + 1.0 >= sys.float_info.max_exp:
            raise OverflowError(
                f"Gauss-Jacobi weight (1-x)^{alpha!r} (1+x)^{beta!r}: its mass "
                "factor 2^(alpha+beta+1) is past the double range"
            )
    easy = [r for r in rules if max(r[1], r[2]) <= ASYMPTOTIC_LIMIT]
    found = _refine(easy, _asymptotic_guesses) if easy else {}
    hard = [rule for rule in rules if rule not in found]
    found.update(_refine(hard, _scanned_guesses) if hard else {})
    for rule in hard:
        if rule not in found:
            raise NonConvergedError(
                f"Gauss-Jacobi nodes for exponents ({rule[1]!r}, {rule[2]!r}) did "
                f"not converge at {rule[0]} nodes"
            )
    return [found[rule] for rule in rules]


def _halves(rules):
    """(n, a, b) arrays over the halves of the rules: rows 2i and 2i+1 for
    rules[i] = (n, alpha, beta), the zeros from the beta end (parameters
    (beta, alpha)) and those from the alpha end ((alpha, beta))."""
    return numpy.array([(n, beta, alpha, n, alpha, beta) for n, alpha, beta in rules],
                       float).reshape(-1, 3).T


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


def _asymptotic_guesses(rules):
    """(rules, phi, half): the asymptotic angles of the n zeros of each rule
    in ascending x, each with its row in _halves(rules). Each half's n
    angles are formed; the alpha half keeps the split nearest its end, split
    the number of them at phi <= pi/2, and the beta half its n - split."""
    n, a, b = _halves(rules)
    rho = n + (a + b + 1.0) / 2.0
    nu = numpy.sqrt(rho * rho + (1.0 - a * a - 3.0 * b * b) / 12.0)
    nu4 = numpy.array([v**4 for v in nu.tolist()])  # Python's pow, not numpy's
    # Gatteschi's formula for the quarter of each half nearest its end
    quarter = numpy.minimum(n, numpy.maximum(3.0, n // 4.0))
    sizes = [size for size, _, _ in rules]
    up = numpy.arange(1.0, max(sizes) + 1.0)
    k = numpy.concatenate([p for size in sizes for p in (up[:size], up[size - 1::-1])])
    half = numpy.repeat(numpy.arange(n.size), numpy.repeat(sizes, 2))
    a, b, rho = a[half], b[half], rho[half]
    t = (k + a / 2.0 - 0.25) * math.pi / rho
    tan = numpy.tan(t / 2.0)
    phi = t + ((0.25 - a * a) / tan - (0.25 - b * b) * tan) / (4.0 * rho * rho)
    end = numpy.flatnonzero(k <= quarter[half])
    j, a, b, at = _bessel_zeros(k[end], a[end]), a[end], b[end], half[end]
    phi[end] = j / nu[at] * (
        1.0 - (4.0 - a * a - 15.0 * b * b) / (720.0 * nu4[at]) * (j * j / 2.0 + a * a - 1.0)
    )
    near = half % 2 == 1
    split = numpy.bincount(half[near & (phi <= math.pi / 2.0)], minlength=n.size)[1::2]
    limit = numpy.column_stack((n[::2] - split, split)).ravel()
    keep = numpy.flatnonzero(k <= limit[half])
    return rules, phi[keep], half[keep]


def _scanned_guesses(rules):
    """(rules, phi, half) as _asymptotic_guesses gives them, for the rules
    whose zeros the signs of P_n bracket on a grid fine enough to separate
    them. Each half of a grid is evaluated from its own end, as the nodes
    are, so that neither end's normalisation underflows the other's
    values."""
    grids = [numpy.linspace(0.0, math.pi, 4 * (n + int(alpha + beta) + 4) + 2)
             for n, alpha, beta in rules]
    # each grid's inner points in ascending x, so each half's in one run
    theta = numpy.concatenate([grid[-2:0:-1] for grid in grids])
    near = theta <= math.pi / 2.0
    half = 2 * numpy.repeat(numpy.arange(len(rules)), [g.size - 2 for g in grids]) + near
    n, a, b = _halves(rules)
    r, _ = _recurrence(2.0 * numpy.sin(numpy.where(near, theta, math.pi - theta) / 2.0) ** 2,
                       _coefficients(n, a, b), numpy.bincount(half, minlength=n.size), n)
    kept, angles, end = [], [], 0
    for rule, grid in zip(rules, grids):
        # the rule's points back in ascending theta
        part, end = numpy.arange(end + grid.size - 3, end - 1, -1), end + grid.size - 2
        # P_n(x) = (-1)^n P_n^(beta,alpha)(-x), P_n(1) > 0, sign P_n(-1) = (-1)^n
        odd = rule[0] % 2 == 1
        sign = numpy.signbit(r[part]) ^ (~near[part] & odd)
        cross = numpy.flatnonzero(numpy.diff(numpy.concatenate(([False], sign, [odd]))))
        if cross.size == rule[0]:
            kept.append(rule)
            angles.append(((grid[cross] + grid[cross + 1]) / 2.0)[::-1])
    theta = numpy.concatenate(angles) if kept else numpy.empty(0)
    near = theta <= math.pi / 2.0
    half = 2 * numpy.repeat(numpy.arange(len(kept)), [rule[0] for rule in kept]) + near
    return kept, numpy.where(near, theta, math.pi - theta), half


def _coefficients(n, a, b):
    """(g, c) tables of shape (max(n), len(a)): the difference recurrence's
    coefficients for steps k = 0..max(n)-1, a column for each half with
    parameters (a[i], b[i])."""
    s = a + b
    k = numpy.arange(1.0, n.max())[:, None]
    u, v, w = 2 * k + s, k + s + 1, k + a + 1
    g, c = numpy.zeros((k.size + 1, a.size)), numpy.empty((k.size + 1, a.size))
    g[1:] = k * (k + b) * (u + 2) / (v * u * w)
    c[1:] = (u + 1) * (u + 2) / (2 * v * w)
    c[0] = (s + 2) / (2 * (a + 1))
    return g, c


def _recurrence(s, coefficients, counts, degrees):
    """R_n and D_n at every node. The nodes come in runs: counts[i] nodes
    with column i of the coefficient tables and degree degrees[i], the
    degrees not increasing, so the runs still below their degree at step k
    are a prefix, and only they are updated."""
    g_table, c_table = coefficients
    r, d, t = numpy.ones(s.size), numpy.zeros(s.size), numpy.empty(s.size)
    k = 0
    for stop in sorted(set(degrees.astype(int).tolist())):
        runs = int(numpy.count_nonzero(degrees >= stop))
        m = int(counts[:runs].sum())
        r_m, d_m, t_m, s_m = r[:m], d[:m], t[:m], s[:m]
        while k < stop:
            end = min(stop, k + BLOCK)
            cs = numpy.repeat(c_table[k:end, :runs], counts[:runs], axis=1)
            cs *= s_m
            for g, c in zip(numpy.repeat(g_table[k:end, :runs], counts[:runs], axis=1), cs):
                numpy.multiply(c, r_m, out=t_m)
                d_m *= g
                d_m -= t_m
                r_m += d_m
            k = end
    return r, d


def _refine(rules, guesses) -> dict:
    """Steps from the guesses to the zeros of every rule in one sweep, then
    the rules whose steps settle on n distinct zeros, by (n, alpha, beta)."""
    rules, phi, half = guesses(sorted(rules, key=lambda rule: -rule[0]))
    if not rules:
        return {}
    sizes = [n for n, _, _ in rules]
    starts = numpy.cumsum(sizes) - sizes
    halves = _halves(rules)
    # a node's half is its column in the coefficient tables
    coefficients = _coefficients(*halves)
    counts = numpy.bincount(half, minlength=2 * len(rules))
    deg, a, b = (v[half] for v in halves)
    total = a + b
    lam = deg * (deg + total + 1.0)
    # each rule is taken at the sweep its own nodes settle in, so that it
    # does not depend on the rules built with it
    done: dict = {}
    finished = numpy.zeros(len(rules), bool)
    with numpy.errstate(all="ignore"):
        for _ in range(MAX_SWEEPS):
            s = 2.0 * numpy.sin(phi / 2.0) ** 2
            r, d = _recurrence(s, coefficients, counts, halves[0])
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
            moved = numpy.maximum.reduceat(numpy.abs(step) * deg, starts)
            settled = (moved <= STEP_TOL) & ~finished
            if settled.any():
                finished |= settled
                # dP_n/dphi at the stepped node over its value at the old one
                grow = 1.0 + step * (r2 + step * (r3 / 2.0 + step * r4 / 6.0))
                inverse = sin / (deg * q * grow)
                nodes = numpy.repeat(settled, sizes)
                built = [rule for rule, new in zip(rules, settled.tolist()) if new]
                done.update(zip(built, _rules(built, phi[nodes], half[nodes] % 2 == 1,
                                              inverse[nodes])))
            if finished.all():
                break
    return {rule: found for rule, found in done.items() if found is not None}


def _rules(rules, phi, near, inverse) -> list:
    """(x, w) of each of the rules, nodes ascending, with positive weights
    scaled to the weight's exact mass, from the phi, near (from the alpha
    end) and inverse of its nodes as _refine holds them. None unless the
    nodes are n distinct points of (-1, 1) and the weights finite and
    positive: zeros of P_n lie at least about 7/n^2 apart in x, two steps
    that settled on one zero do not.

    w = C_n / (dP_n/dphi)^2 on each half with parameters (a, b), inverse
    proportional to 1 / (dP_n/dphi) up to a factor the rule shares: C_n /
    P_n(1)^2 is (1+b)/(1+a) prod_{k=2..n} k(k+b) / ((k+a)(k+a+b)), summed as
    logs of factors near 1, the rules of one size together; inverse is
    scaled to the half's largest entry, so that neither its square nor the
    constant leaves the float range."""
    sizes = [size for size, _, _ in rules]
    starts = numpy.cumsum(sizes) - sizes
    ends = starts + sizes
    half = 2 * numpy.repeat(numpy.arange(len(rules)), sizes) + near
    n, a, b = _halves(rules)
    cos = numpy.cos(phi)
    x = numpy.where(near, cos, -cos)
    deg = n[half]
    apart = numpy.append(x[1:] - x[:-1] > 1e-3 / (deg[1:] * deg[1:]), True)
    apart[ends - 1] = True
    ok = numpy.logical_and.reduceat(apart, starts) & (-1.0 < x[starts]) & (x[ends - 1] < 1.0)
    k = numpy.arange(2.0, max(sizes) + 1.0)
    p, q = a[:, None], b[:, None]
    kp = k + p
    terms = numpy.log1p(-p * (2.0 * k + p + q) / ((kp + q) * kp))
    logs = numpy.empty(n.size)
    for size in set(sizes):
        rows = n == size
        logs[rows] = numpy.add.reduce(terms[rows, :size - 1], axis=1)
    top = numpy.zeros(n.size)
    numpy.maximum.at(top, half, numpy.abs(inverse))
    filled = numpy.repeat(ok, 2) & (numpy.bincount(half, minlength=n.size) > 0)
    tops, logs, a, b = top.tolist(), logs.tolist(), a.tolist(), b.tolist()
    scale = [0.0] * n.size
    for h in numpy.flatnonzero(filled).tolist():
        log_c = math.log((1.0 + b[h]) / (1.0 + a[h])) + logs[h]
        scale[h] = math.exp(log_c + 2.0 * math.log(tops[h]))
    w = (inverse / top[half]) ** 2 * numpy.array(scale)[half]
    positive = ok & numpy.logical_and.reduceat(w > 0.0, starts)
    found = []
    for (_, alpha, beta), start, end, good in zip(rules, starts.tolist(), ends.tolist(),
                                                  positive.tolist()):
        total = math.fsum(w[start:end].tolist()) if good else 0.0
        if not 0.0 < total < math.inf:
            found.append(None)
            continue
        mass = 2.0 ** (alpha + beta + 1.0) * _beta(alpha + 1.0, beta + 1.0)
        found.append((x[start:end], w[start:end] * (mass / total)))
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
