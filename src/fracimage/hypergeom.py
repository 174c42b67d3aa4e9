"""Generalized hypergeometric series and the third Appell double series.

Everything here is a plain power series evaluated carefully: terminating
series are collected term by term and compensated with math.fsum, infinite
series stream with Neumaier summation and an explicit tail criterion. No
analytic continuation is attempted; arguments outside the convergence
domain raise DivergenceError rather than returning a continuation value.

gauss_2f1_array sums the same 2F1 series over an array of arguments at
once, rounding exactly as the scalar loop does at every element.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy

from .errors import DenominatorPoleError, DivergenceError, NonConvergedError
from .gammafns import GammaProduct, gamma_product_eval, is_nonpositive_integer

DEFAULT_RTOL = 1e-13
DEFAULT_MAX_TERMS = 1_000_000
# diagonal s holds s+1 scalar terms, so ~2000 diagonals ~ 2e6 terms
DEFAULT_MAX_DIAGONALS = 2000
# short terminating series are summed in exact rational arithmetic (floats
# are exact rationals), so heavy cancellation costs no accuracy
EXACT_TERM_LIMIT = 64
# terms per block of gauss_2f1_array: memory is O(arguments x block) however
# many terms a slow argument near 1 needs
ARRAY_BLOCK_TERMS = 64


def _termination_index(numerator_params: tuple[float, ...]) -> int | None:
    """Smallest n with some parameter equal to -n, or None."""
    best = None
    for a in numerator_params:
        if is_nonpositive_integer(a):
            n = int(round(-a))
            if best is None or n < best:
                best = n
    return best


def _denominator_pole_index(denominator_params: tuple[float, ...]) -> int | None:
    """First series index k at which some (b)_k factor vanishes, or None."""
    worst = None
    for b in denominator_params:
        if is_nonpositive_integer(b):
            k = 1 - int(round(b))
            if worst is None or k < worst:
                worst = k
    return worst


def _check_denominator(num: tuple[float, ...], den: tuple[float, ...]) -> None:
    pole_at = _denominator_pole_index(den)
    if pole_at is None:
        return
    stop = _termination_index(num)
    if stop is None or stop >= pole_at:
        bad = min(b for b in den if is_nonpositive_integer(b))
        raise DenominatorPoleError(
            f"series denominator parameter {bad!r} hits a pole "
            f"before the series terminates",
            argument=bad,
            side="denominator",
        )


def pfq(
    numerator_params: tuple[float, ...],
    denominator_params: tuple[float, ...],
    z: float,
    *,
    rtol: float = DEFAULT_RTOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> float:
    """pFq(numerator; denominator; z) as a float.

    Terminating series (some numerator parameter a nonpositive integer) are
    summed exactly in |a|+1 terms at any z; int or Fraction inputs keep that
    sum free of rounding. Otherwise p <= q converges for every z and
    p == q+1 only for |z| < 1; anything else raises DivergenceError."""
    num = tuple(float(a) for a in numerator_params)
    den = tuple(float(b) for b in denominator_params)
    _check_denominator(num, den)

    stop = _termination_index(num)
    if stop is not None:
        if stop <= EXACT_TERM_LIMIT:
            # rational inputs (ints, Fractions, decimal-exact floats) are
            # summed without rounding; the original values are used so an
            # exact Fraction argument is not flattened to a float first
            total = Fraction(0)
            term = Fraction(1)
            zf = Fraction(z)
            num_exact = tuple(Fraction(a) for a in numerator_params)
            den_exact = tuple(Fraction(b) for b in denominator_params)
            for k in range(stop + 1):
                total += term
                # a denominator pole landing exactly at termination must
                # not be touched by the unused last ratio update
                if k == stop:
                    break
                factor = Fraction(1)
                for a in num_exact:
                    factor *= a + k
                for b in den_exact:
                    factor /= b + k
                term *= factor * zf / (k + 1)
            return float(total)
        terms = []
        term = 1.0
        zf = float(z)
        for k in range(stop + 1):
            terms.append(term)
            if k == stop:
                break
            factor = 1.0
            for a in num:
                factor *= a + k
            for b in den:
                factor /= b + k
            term *= factor * zf / (k + 1)
        return math.fsum(terms)

    z = float(z)
    if z == 0.0:
        return 1.0
    p, q = len(num), len(den)
    if p > q + 1:
        raise DivergenceError(
            f"{p}F{q} diverges for every nonzero argument"
        )
    if p == q + 1 and not abs(z) < 1.0:
        raise DivergenceError(
            f"{p}F{q} requires |z| < 1, got z = {z!r}"
        )

    # tail of a p = q+1 series behaves like a geometric series in |z|
    tail_scale = 1.0 / (1.0 - abs(z)) if p == q + 1 else 1.0
    acc = 0.0
    comp = 0.0
    term = 1.0
    small_runs = 0
    for k in range(max_terms):
        # Neumaier step
        t = acc + term
        if abs(acc) >= abs(term):
            comp += (acc - t) + term
        else:
            comp += (term - t) + acc
        acc = t
        factor = 1.0
        for a in num:
            factor *= a + k
        for b in den:
            factor /= b + k
        term *= factor * z / (k + 1)
        bound = abs(term) * tail_scale
        if bound <= rtol * max(abs(acc + comp), 1e-300):
            small_runs += 1
            if small_runs >= 2:
                return acc + comp
        else:
            small_runs = 0
    raise NonConvergedError(
        f"pfq did not converge within {max_terms} terms (z = {z!r})"
    )


def gauss_2f1(
    a: float,
    b: float,
    c: float,
    z: float,
    *,
    rtol: float = DEFAULT_RTOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> float:
    """2F1(a, b; c; z) inside the unit disc (or terminating, any z).

    The single continuation handled here is the classical z = 1 value,
    which exists for c - a - b > 0."""
    if z == 1.0 and _termination_index((a, b)) is None:
        if c - a - b <= 0.0:
            raise DivergenceError(
                f"2F1 at z = 1 needs c - a - b > 0, got {c - a - b!r}"
            )
        _check_denominator((a, b), (c,))
        gp = GammaProduct((c, c - a - b), (c - a, c - b))
        return gamma_product_eval(gp).to_float()
    return pfq((a, b), (c,), z, rtol=rtol, max_terms=max_terms)


def gauss_2f1_array(
    a: float,
    b: float,
    c: float,
    z: numpy.ndarray,
    *,
    rtol: float = DEFAULT_RTOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> numpy.ndarray:
    """gauss_2f1(a, b, c, zi) at every element zi of a 1-D array, bit for bit.

    The non-terminating series at 0 < |zi| < 1 is summed on the whole
    array; every other element (terminating or pole parameters, zi = 0,
    |zi| >= 1) goes through the scalar gauss_2f1 and raises its errors."""
    z = numpy.asarray(z, dtype=float)
    a, b, c = float(a), float(b), float(c)
    if _termination_index((a, b)) is not None or is_nonpositive_integer(c):
        return numpy.array(
            [gauss_2f1(a, b, c, zi, rtol=rtol, max_terms=max_terms) for zi in z.tolist()],
            dtype=float,
        )
    out = numpy.empty(z.shape)
    series = (numpy.abs(z) < 1.0) & (z != 0.0)
    for i in numpy.flatnonzero(~series).tolist():
        out[i] = gauss_2f1(a, b, c, float(z[i]), rtol=rtol, max_terms=max_terms)
    if series.any():
        out[series] = _series_2f1(a, b, c, z[series], rtol, max_terms)
    return out


def _series_2f1(
    a: float, b: float, c: float, z: numpy.ndarray, rtol: float, max_terms: int
) -> numpy.ndarray:
    """pfq's non-terminating 2F1 loop run for every element of z at once.

    Each row is one argument, each column one term index. Terms and
    partial sums come from multiply/add.accumulate, which are sequential
    scans, so each product and sum rounds as in the scalar loop. TwoSum
    gives each addition's exact rounding error, which is what Neumaier's
    branch computes, and the errors are accumulated the same way. A block
    starts its scans from the values the previous block carried; rows that
    met the stopping rule are dropped."""
    out = numpy.empty(z.shape)
    rows = numpy.arange(z.size)
    tail_scale = 1.0 / (1.0 - numpy.abs(z))
    term = numpy.ones(z.size)
    acc = numpy.zeros(z.size)
    comp = numpy.zeros(z.size)
    small_before = numpy.zeros(z.size, dtype=bool)
    for start in range(0, max_terms, ARRAY_BLOCK_TERMS):
        k = numpy.arange(start, min(start + ARRAY_BLOCK_TERMS, max_terms), dtype=float)
        factor = (a + k) * (b + k) / (c + k)
        ratio = factor * z[:, None] / (k + 1.0)
        # terms[:, j] is the term added at step start+j; the last column is
        # the next term, the one the stopping rule bounds
        terms = numpy.multiply.accumulate(
            numpy.concatenate((term[:, None], ratio), axis=1), axis=1
        )
        sums = numpy.add.accumulate(
            numpy.concatenate((acc[:, None], terms[:, :-1]), axis=1), axis=1
        )
        before, added, after = sums[:, :-1], terms[:, :-1], sums[:, 1:]
        back = after - before
        errors = (before - (after - back)) + (added - back)
        comps = numpy.add.accumulate(
            numpy.concatenate((comp[:, None], errors), axis=1), axis=1
        )[:, 1:]
        values = after + comps
        small = numpy.abs(terms[:, 1:]) * tail_scale[:, None] <= rtol * numpy.maximum(
            numpy.abs(values), 1e-300
        )
        # two consecutive small bounds stop a row, also across blocks
        stops = small & numpy.concatenate((small_before[:, None], small[:, :-1]), axis=1)
        done = stops.any(axis=1)
        if done.any():
            first = stops[done].argmax(axis=1)
            out[rows[done]] = values[done, first]
            keep = ~done
            rows, z, tail_scale = rows[keep], z[keep], tail_scale[keep]
            terms, after, comps, small = terms[keep], after[keep], comps[keep], small[keep]
            if rows.size == 0:
                return out
        term, acc, comp, small_before = terms[:, -1], after[:, -1], comps[:, -1], small[:, -1]
    raise NonConvergedError(
        f"pfq did not converge within {max_terms} terms (z = {float(z[0])!r})"
    )


def appell_f3(
    a: float,
    a_prime: float,
    b: float,
    b_prime: float,
    c: float,
    w: float,
    z: float,
    *,
    rtol: float = DEFAULT_RTOL,
    max_diagonals: int = DEFAULT_MAX_DIAGONALS,
) -> float:
    """Third Appell function F3(a, a'; b, b'; c; w, z).

    Summed diagonal by diagonal: on the diagonal m + n = s the denominator
    Pochhammer (c)_{m+n} is the constant (c)_s, so each diagonal is a
    finite convolution of the two one-dimensional term sequences. Requires
    |w| < 1 unless the w-side terminates ((a)_m (b)_m hits zero), and
    |z| < 1 likewise for the z-side."""
    if is_nonpositive_integer(c):
        raise DenominatorPoleError(
            f"F3 lower parameter {c!r} is a nonpositive integer",
            argument=c,
            side="denominator",
        )
    w_stop = _termination_index((a, b))
    z_stop = _termination_index((a_prime, b_prime))
    if w == 0.0:
        w_stop = 0
    if z == 0.0:
        z_stop = 0
    if w_stop is None and not abs(w) < 1.0:
        raise DivergenceError(f"F3 requires |w| < 1, got w = {w!r}")
    if z_stop is None and not abs(z) < 1.0:
        raise DivergenceError(f"F3 requires |z| < 1, got z = {z!r}")

    # Raw term sequences (a)_m (b)_m w^m / m! grow factorially, as does
    # (c)_{m+n}; store them pre-divided by (c)_m so everything kept in
    # memory is a bounded 2F1-type term:
    #   SP_m = (a)_m (b)_m w^m / (m! (c)_m),  SQ_n likewise, and
    #   P_m Q_n / (c)_{m+n} = SP_m SQ_n r_m  with
    #   r_m = (c)_m (c)_{s-m} / (c)_s, r_0 = 1,
    #   r_{m+1} = r_m (c+m) / (c+s-1-m).
    sp = [1.0]
    sq = [1.0]
    diagonals = []
    small_runs = 0
    for s in range(max_diagonals):
        if w_stop is None or len(sp) <= w_stop:
            m = len(sp) - 1
            sp.append(sp[-1] * (a + m) * (b + m) * w / ((m + 1) * (c + m)))
        if z_stop is None or len(sq) <= z_stop:
            n = len(sq) - 1
            sq.append(
                sq[-1]
                * (a_prime + n)
                * (b_prime + n)
                * z
                / ((n + 1) * (c + n))
            )
        lo = 0 if z_stop is None else max(0, s - z_stop)
        hi = s if w_stop is None else min(s, w_stop)
        parts = []
        ratio = 1.0
        for m in range(hi + 1):
            if m > 0:
                ratio *= (c + m - 1) / (c + s - m)
            if m >= lo:
                parts.append(sp[m] * sq[s - m] * ratio)
        diagonals.append(math.fsum(parts))
        running = math.fsum(diagonals)
        if abs(diagonals[-1]) <= rtol * max(abs(running), 1e-300):
            small_runs += 1
            if small_runs >= 3:
                return running
        else:
            small_runs = 0
    raise NonConvergedError(
        f"F3 did not converge within {max_diagonals} diagonals "
        f"(w = {w!r}, z = {z!r})"
    )
