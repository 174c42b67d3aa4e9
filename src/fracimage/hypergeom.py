"""Generalized hypergeometric series and the third Appell double series.

Everything here is a plain power series evaluated carefully, and each kind
of series is summed one way. A terminating series, however long, is summed
exactly by exact_series_sum: every float is an exact rational, so the sum
runs in backward Horner form on integer numerators and denominators, with
no gcd along the way, and rounds once in a single correctly rounded integer
division. An infinite series streams with Neumaier summation and an
explicit tail criterion, within the tolerance RTOL and the budget of
MAX_TERMS terms (both read at call time). pfq_at sums one series at many
arguments, every stream sharing each term's parameter factor, and pfq is
pfq_at at one argument. Appell's F3 is one such stream: a single sum of
2F1 series, each summed by pfq. A 2F1 at negative z would alternate and
cancel digits, so it is summed at z/(z-1) in (0, 1/2) through Pfaff's
transformation. No analytic continuation is attempted; arguments outside
the convergence domain raise DivergenceError rather than returning a
continuation value.

One index, the smallest m with a parameter equal to -m, gives both where a
series terminates (upper) and where (b)_k first vanishes, at k = m + 1.

Everything is plain Python floats and integers: quadrature sums each 2F1
kernel piece by one pfq_at call over the nodes of its rule.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DenominatorPoleError, DivergenceError, NonConvergedError
from .gammafns import is_nonpositive_integer

# relative stopping tolerance and term budget of every infinite series
RTOL = 1e-13
MAX_TERMS = 1_000_000


def _termination_index(params: tuple[float, ...]) -> int | None:
    """Smallest m with some parameter equal to -m, or None."""
    best = None
    for a in params:
        if is_nonpositive_integer(a):
            n = int(round(-a))
            if best is None or n < best:
                best = n
    return best


def as_ratio(value) -> tuple[int, int]:
    """The exact rational value of an int, float, Fraction (or anything
    Fraction accepts) as (numerator, denominator)."""
    if isinstance(value, (int, float, Fraction)):
        return value.as_integer_ratio()
    return Fraction(value).as_integer_ratio()


def exact_series_sum(coefficients, numerator_params, denominator_params, z) -> float:
    """sum_k c_k (a_1)_k...(a_p)_k / ((b_1)_k...(b_q)_k) z^k over the given
    coefficients c_0..c_m, summed exactly and rounded once.

    Every input is an exact rational. The sum runs in backward Horner form,
    S = c_m, then S <- c_k + r_k S down to k = 0, with r_k the exact term
    ratio z prod(a_i + k) / prod(b_j + k); S is carried as one integer
    numerator and denominator, never reduced, so no step takes a gcd. The
    single true division at the end is correctly rounded, the double
    float(Fraction) gives for the same rational. Only r_0..r_(m-1) are
    formed, so a denominator parameter that vanishes at k = m is harmless;
    one that vanishes earlier raises DenominatorPoleError."""
    coeffs = [as_ratio(c) for c in coefficients]
    scale = math.lcm(*(d for _, d in coeffs))
    ints = [n * (scale // d) for n, d in coeffs]
    nums, dens = [as_ratio(a) for a in numerator_params], []
    for b in map(as_ratio, denominator_params):
        if b in nums:  # (b)_k / (b)_k = 1, so the pair drops out
            nums.remove(b)
        else:
            dens.append(b)
    # constant parts of r_k: z and the parameters' own denominators
    zn, zd = as_ratio(z)
    top, bottom = zn, zd
    for _, ad in nums:
        bottom *= ad
    for _, bd in dens:
        top *= bd
    g = math.gcd(top, bottom)  # the powers of two that float parameters share
    top, bottom = top // g, bottom // g
    num, den = ints[-1], 1
    for k in range(len(ints) - 2, -1, -1):
        p, q = top, bottom
        for an, ad in nums:
            p *= an + k * ad
        for bn, bd in dens:
            q *= bn + k * bd
        if not q:
            raise DenominatorPoleError(f"series term denominator vanishes at k = {k}")
        den *= q
        num = ints[k] * den + p * num
    den *= scale
    # a positive denominator keeps an exact zero from rounding to -0.0
    return num / den if den > 0 else -num / -den


def _check_denominator(den: tuple[float, ...]) -> None:
    """Refuse a lower parameter b at a nonpositive integer: a stream reaches every (b)_k."""
    pole = _termination_index(den)
    if pole is not None:
        raise DenominatorPoleError(f"series denominator parameter {-pole} hits a pole")


def pfq(
    numerator_params: tuple[float, ...],
    denominator_params: tuple[float, ...],
    z: float,
) -> float:
    """pFq(numerator; denominator; z) as a float: pfq_at at the one z."""
    return pfq_at(numerator_params, denominator_params, (z,))[0]


def pfq_at(numerator_params, denominator_params, zs) -> list[float]:
    """pFq(numerator; denominator; z) as a float at each z of zs.

    A terminating series (some numerator parameter a nonpositive integer)
    is summed exactly in |a|+1 terms at any z (exact_series_sum: integer
    Horner form, one rounding at the end), taking each float, int or
    Fraction input at its exact rational value, so heavy cancellation
    costs no accuracy. Otherwise p <= q converges for every z and p == q+1
    only for |z| < 1; anything else raises DivergenceError. The stream
    stops once two successive tail bounds fall below RTOL times the
    partial sum. A non-finite parameter or argument raises ValueError, and
    a partial sum past the double range raises OverflowError at that term.

    The parameters and every argument are checked before any series is
    summed. Term k's parameter factor is formed once and shared by the
    stream of every argument, so each value is the double a call at that
    argument alone returns."""
    num = tuple(float(a) for a in numerator_params)
    den = tuple(float(b) for b in denominator_params)
    if not all(map(math.isfinite, num + den)):
        raise ValueError(f"pfq: parameters must be finite, got {num!r}; {den!r}")
    zs = list(zs)
    for z in zs:
        # an int or Fraction is exact at any size, where math.isfinite raises
        if not isinstance(z, (int, Fraction)) and not math.isfinite(z):
            raise ValueError(f"pfq: argument must be finite, got {z!r}")
    stop = _termination_index(num)
    if stop is not None:
        # the original values are used so an exact Fraction argument is not
        # flattened to a float first; the extra lower parameter 1 gives the
        # k! of each term
        return [exact_series_sum((1,) * (stop + 1), numerator_params,
                                 (*denominator_params, 1), z) for z in zs]
    _check_denominator(den)

    zs = [float(z) for z in zs]
    p, q = len(num), len(den)
    for z in zs:
        if z != 0.0 and p > q + 1:
            raise DivergenceError(f"{p}F{q} diverges for every nonzero argument")
        if p == q + 1 and not abs(z) < 1.0:
            raise DivergenceError(f"{p}F{q} requires |z| < 1, got z = {z!r}")
    if (p, q) == (2, 1) and any(z < 0.0 for z in zs):
        # the alternating series cancels digits away; Pfaff's transformation
        # (DLMF 15.8.1) sums a series at z/(z-1) in (0, 1/2) instead
        (a, b), (c,) = num, den
        pfaff = iter(pfq_at((a, c - b), (c,), [z / (z - 1.0) for z in zs if z < 0.0]))
        direct = iter(pfq_at(num, den, [z for z in zs if not z < 0.0]))
        return [(1.0 - z) ** -a * next(pfaff) if z < 0.0 else next(direct) for z in zs]

    factors = []  # term k's parameter factor, shared by every stream
    values = []
    inf = math.inf  # a local name: the overflow test below runs at every term
    for z in zs:
        if z == 0.0:
            values.append(1.0)
            continue
        # tail of a p = q+1 series behaves like a geometric series in |z|
        tail_scale = 1.0 / (1.0 - abs(z)) if p == q + 1 else 1.0
        acc = 0.0
        comp = 0.0
        term = 1.0
        small_runs = 0
        for k in range(MAX_TERMS):
            # Neumaier step
            t = acc + term
            if abs(acc) >= abs(term):
                comp += (acc - t) + term
            else:
                comp += (term - t) + acc
            acc = t
            if k == len(factors):
                factor = 1.0
                for a in num:
                    factor *= a + k
                for b in den:
                    factor /= b + k
                factors.append(factor)
            term *= factors[k] * z / (k + 1)
            # max(total, 1e-300) spelt out: a builtin call per term costs a
            # quarter of the loop. The floor is taken only where total < 1e-300
            # holds, so a NaN total stays NaN and fails the test, as with max;
            # the reversed form, total if total > 1e-300 else 1e-300, would make
            # NaN the floor and could return NaN as converged. A sum that
            # overflows is NaN here (acc is inf, comp -inf or NaN), so it
            # reaches the last branch
            total = abs(acc + comp)
            if abs(term) * tail_scale <= RTOL * (1e-300 if total < 1e-300 else total):
                small_runs += 1
                if small_runs >= 2:
                    values.append(acc + comp)
                    break
            elif total < inf:
                small_runs = 0
            else:
                raise OverflowError(f"pfq: the partial sum overflows the double range at term {k}")
        else:
            raise NonConvergedError(
                f"pfq did not converge within {MAX_TERMS} terms (z = {z!r})"
            )
    return values


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """2F1(a, b; c; z) by pfq. At |z| >= 1, z = 1 too, DivergenceError unless
    a or b is a nonpositive integer, so that the series terminates."""
    return pfq((a, b), (c,), z)


def appell_f3(
    a: float,
    a_prime: float,
    b: float,
    b_prime: float,
    c: float,
    w: float,
    z: float,
) -> float:
    """Third Appell function F3(a, a'; b, b'; c; w, z), as the single sum

        F3 = sum_m (a)_m (b)_m w^m / (m! (c)_m) 2F1(a', b'; c+m; z)

    that (c)_{m+n} = (c)_m (c+m)_n gives (Srivastava & Karlsson, Multiple
    Gaussian Hypergeometric Series, 1985). Each 2F1 comes from pfq, which
    raises for |z| >= 1 unless (a')_n (b')_n terminates it. The outer sum
    needs |w| < 1 unless (a)_m (b)_m terminates it; it stops as pfq does,
    once two successive tail bounds (the next coefficient over 1 - |w|,
    times the last |2F1| or 1 if larger) fall below RTOL. A non-finite
    parameter or argument raises ValueError, and a partial sum past the
    double range raises OverflowError, in the outer sum as in each 2F1."""
    params = (a, a_prime, b, b_prime, c)
    if not all(map(math.isfinite, params)):
        raise ValueError(f"appell_f3: parameters must be finite, got {params!r}")
    _check_denominator((c,))
    if not (math.isfinite(w) and math.isfinite(z)):
        raise ValueError(f"appell_f3: argument must be finite, got w = {w!r}, z = {z!r}")
    w_stop = 0 if w == 0.0 else _termination_index((a, b))
    if w_stop is None and not abs(w) < 1.0:
        raise DivergenceError(f"F3 requires |w| < 1, got w = {w!r}")

    tail_scale = 1.0 / (1.0 - abs(w)) if w_stop is None else 1.0
    acc = 0.0
    comp = 0.0
    coeff = 1.0
    small_runs = 0
    for m in range(MAX_TERMS):
        inner = pfq((a_prime, b_prime), (c + m,), z)
        term = coeff * inner
        # Neumaier step, written out as in pfq_at: a helper would cost a call per 2F1 term
        t = acc + term
        if abs(acc) >= abs(term):
            comp += (acc - t) + term
        else:
            comp += (term - t) + acc
        acc = t
        if m == w_stop:
            return acc + comp
        coeff *= (a + m) * (b + m) * w / ((m + 1) * (c + m))
        # a terminating outer sum runs to its last term; both floors are
        # max spelt out as in pfq, so a NaN stays NaN and never passes
        size, total = abs(inner), abs(acc + comp)
        bound = abs(coeff) * (1.0 if size < 1.0 else size) * tail_scale
        if w_stop is None and bound <= RTOL * (1e-300 if total < 1e-300 else total):
            small_runs += 1
            if small_runs >= 2:
                return acc + comp
        elif total < math.inf:
            small_runs = 0
        else:
            raise OverflowError(f"F3: the partial sum overflows the double range at term {m}")
    raise NonConvergedError(
        f"F3 did not converge within {MAX_TERMS} terms (w = {w!r}, z = {z!r})"
    )
