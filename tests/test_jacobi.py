"""Tests for the Jacobi-type polynomial family M_n^(p,q)."""

import math
from fractions import Fraction

import pytest

from fracimage.errors import DenominatorPoleError, DomainError
from fracimage.jacobi import (
    JacobiSpec,
    PolySpec,
    _coefficients_exact,
    _poly_eval,
    jacobi_p,
    m_jacobi_connection,
    m_poly,
    m_poly_coefficients,
    ode_residual,
    weight,
)
from fracimage.quadrature import quad_endpoint_singular


def test_degree_zero_is_one():
    for x in (0.0, 0.5, 3.0, -0.2):
        assert m_poly(PolySpec(0, 5.0, 1.0), x) == 1.0


def test_degree_one_closed_form():
    # M_1^(p,q)(x) = (p-2)x - (q+1)
    assert m_poly(PolySpec(1, 3.0, 0.0), 1.0) == 0.0
    assert m_poly(PolySpec(1, 5.0, 1.5), 2.0) == 3.5


def test_coefficients_small_case():
    # n=2, p=7, q=1: 12x^2 - 24x + 6 from the binomial sum by hand
    assert m_poly_coefficients(PolySpec(2, 7.0, 1.0)) == [6.0, -24.0, 12.0]
    assert m_poly(PolySpec(2, 7.0, 1.0), 1.0) == -6.0


def _binomial_fraction(top: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= top - j
    return out / math.factorial(k)


def test_exact_coefficients_match_binomial_sum():
    # the integer construction against the defining binomial sum, and the
    # direct evaluation against a Fraction Horner loop, bit for bit
    for n in range(17):
        for p in (35.5, 9.0, 7.3, -2.25, 13):
            for q in (1.5, 0.0, -0.4, -1.5, 3):
                spec = PolySpec(n, p, q)
                fp, fq = Fraction(p), Fraction(q)
                expected = tuple(
                    (-1) ** (n + k) * math.factorial(n)
                    * _binomial_fraction(fp - n - 1, k)
                    * _binomial_fraction(fq + n, n - k)
                    for k in range(n + 1)
                )
                assert _coefficients_exact(spec) == expected
                for x in (0.0, 0.3, 2.5, -0.7, 13.1):
                    acc = Fraction(0)
                    for c in reversed(expected):
                        acc = acc * Fraction(x) + c
                    assert repr(m_poly(spec, x)) == repr(float(acc))


def test_coefficient_memo_is_a_bounded_module_cache():
    _coefficients_exact.cache_clear()
    first = _coefficients_exact(PolySpec(5, 13.0, 1.5))
    assert isinstance(first, tuple)
    assert all(isinstance(c, Fraction) for c in first)
    assert _coefficients_exact(PolySpec(5, 13.0, 1.5)) is first
    info = _coefficients_exact.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert info.maxsize is not None and 0 < info.maxsize <= 1024
    _coefficients_exact.cache_clear()
    assert _coefficients_exact.cache_info().currsize == 0


def test_methods_agree_on_grid():
    for n in range(9):
        for dp in range(2, 7):
            p = 2.0 * n + dp
            for q in (-0.5, 0.0, 1.0, 2.5):
                spec = PolySpec(n, p, q)
                for x in (0.1, 1.0, 5.0):
                    direct = m_poly(spec, x, method="direct")
                    hyp = m_poly(spec, x, method="hypergeometric")
                    assert math.isclose(direct, hyp, rel_tol=1e-12, abs_tol=1e-12)


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        m_poly(PolySpec(1, 5.0, 0.0), 1.0, method="series")


def test_degree_validation():
    with pytest.raises(ValueError):
        PolySpec(-1, 5.0, 0.0)
    with pytest.raises(ValueError):
        JacobiSpec(-2, 0.5, 0.5)


def test_hypergeometric_pole_detected():
    # q+1 a nonpositive integer inside the series range has no 2F1 form
    with pytest.raises(DenominatorPoleError):
        m_poly(PolySpec(1, 5.0, -1.0), 1.0, method="hypergeometric")
    with pytest.raises(DenominatorPoleError):
        m_poly(PolySpec(2, 6.0, -2.0), 0.5, method="hypergeometric")
    # the direct binomial sum is still defined there
    assert math.isfinite(m_poly(PolySpec(1, 5.0, -1.0), 1.0))
    # and a pole index at or beyond the termination order is harmless
    assert math.isclose(
        m_poly(PolySpec(1, 5.0, 0.0), 1.0, method="hypergeometric"),
        m_poly(PolySpec(1, 5.0, 0.0), 1.0),
        rel_tol=1e-13,
    )
    # the pole q+1 = -m is reached exactly when the series runs past k = m,
    # i.e. when m < n; otherwise both forms agree
    for n in range(5):
        for q in (0.0, -1.0, -2.0, -3.0, -4.0):
            spec = PolySpec(n, 5.5, q)
            if q + 1.0 <= 0.0 and -(q + 1.0) < n:
                with pytest.raises(DenominatorPoleError):
                    m_poly(spec, 0.75, method="hypergeometric")
            else:
                assert m_poly(spec, 0.75, method="hypergeometric") == pytest.approx(
                    m_poly(spec, 0.75), rel=1e-12
                ), (n, q)
    # an integer p can stop the series first, at the zero polynomial
    assert m_poly(PolySpec(2, 3.0, -2.0), 0.75, method="hypergeometric") == 0.0


def test_jacobi_value_at_one():
    # P_n^(a,b)(1) = binomial(n+a, n)
    assert jacobi_p(JacobiSpec(0, 0.7, -0.2), 1.0) == 1.0
    assert math.isclose(jacobi_p(JacobiSpec(2, 1.0, 0.3), 1.0), 3.0, rel_tol=1e-13)


def test_jacobi_past_the_double_range_raises():
    # the recurrence returned inf here
    with pytest.raises(OverflowError):
        jacobi_p(JacobiSpec(3, 0.0, 0.0), 1e300)


def test_connection_examples():
    lhs, rhs = m_jacobi_connection(PolySpec(1, 5.0, 0.0), 1.0)
    assert math.isclose(lhs, 2.0, rel_tol=1e-13)
    assert math.isclose(rhs, 2.0, rel_tol=1e-13)
    lhs, rhs = m_jacobi_connection(PolySpec(2, 9.0, 1.0), 0.5)
    assert math.isclose(lhs, -4.5, rel_tol=1e-13)
    assert math.isclose(lhs, rhs, rel_tol=1e-13)


def test_connection_grid():
    for n in range(7):
        for dp in range(2, 7):
            p = 2.0 * n + dp
            for q in (-0.5, 0.0, 1.0, 2.5):
                for x in (0.1, 1.0, 5.0):
                    lhs, rhs = m_jacobi_connection(PolySpec(n, p, q), x)
                    assert math.isclose(lhs, rhs, rel_tol=1e-11, abs_tol=1e-11)


def test_classical_jacobi_from_m_poly():
    # inverting the connection: P_n^(a,b)(z) = (-1)^n / n! M_n^(-a-b, a)((z-1)/2)
    n, a, b, z = 3, 0.3, -0.8, 0.7
    direct = jacobi_p(JacobiSpec(n, a, b), z)
    via_m = m_poly(PolySpec(n, -a - b, a), (z - 1.0) / 2.0)
    sign_n = -1.0 if n % 2 else 1.0
    assert math.isclose(direct, sign_n / math.factorial(n) * via_m, rel_tol=1e-12)


def test_weight_values_and_domain():
    assert weight(4.0, 1.0, 1.0) == 2.0**-5
    assert math.isclose(weight(3.0, 0.5, 4.0), 2.0 * 5.0**-3.5, rel_tol=1e-14)
    with pytest.raises(DomainError):
        weight(4.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        weight(4.0, 1.0, -2.0)


def test_ode_satisfied_with_corrected_eigenvalue():
    for n in range(9):
        spec = PolySpec(n, 2.0 * n + 4.0, 0.7)
        for i in range(20):
            x = 0.05 + i * (4.0 - 0.05) / 19.0
            lam = n * (n + 1.0 - spec.p)
            scale = 1.0 + abs(lam * m_poly(spec, x))
            assert abs(ode_residual(spec, x)) <= 1e-10 * scale


def test_ode_printed_eigenvalue_fails():
    # the other eigenvalue sign convention leaves residual 8 - 24x here
    spec = PolySpec(1, 5.0, 0.0)
    assert abs(ode_residual(spec, 2.0)) < 1e-12
    assert math.isclose(
        ode_residual(spec, 2.0, printed_eigenvalue=True), -40.0, rel_tol=1e-12
    )


def _pair_integral(m, n, p, q):
    # x = u/(1-u) maps the half-line weight onto a Jacobi weight on (0,1);
    # (1-u)^(m+n) times the polynomial pair is itself a polynomial in u
    cm = m_poly_coefficients(PolySpec(m, p, q))
    cn = m_poly_coefficients(PolySpec(n, p, q))

    def g(nodes):
        return [(1.0 - u) ** (m + n) * _poly_eval(cm, x) * _poly_eval(cn, x)
                for u, x in ((u, u / (1.0 - u)) for u in nodes)]

    return quad_endpoint_singular(g, q, p - 2.0 - m - n).value


@pytest.mark.parametrize("q", [0.0, 1.5])
def test_orthogonality_on_half_line(q):
    p = 9.0
    specs = [PolySpec(k, p, q) for k in range(4)]
    assert all(s.p > 2 * s.n + 1 and s.q > -1.0 for s in specs)
    norms = [_pair_integral(k, k, p, q) for k in range(4)]
    assert all(v > 0.0 for v in norms)
    for m in range(4):
        for n in range(m + 1, 4):
            off = _pair_integral(m, n, p, q)
            assert abs(off) <= 1e-8 * math.sqrt(norms[m] * norms[n])


def test_orthogonal_range_flag():
    # inside p > 2n+1, q > -1 the squared norm's weight exponents q and
    # p-2-2n exceed -1; outside it the norm integral does not exist
    for spec, inside in (
        (PolySpec(3, 9.0, 0.0), True),
        (PolySpec(3, 7.0, 0.0), False),
        (PolySpec(3, 9.0, -1.0), False),
    ):
        assert (spec.p > 2 * spec.n + 1 and spec.q > -1.0) is inside
        if inside:
            assert _pair_integral(spec.n, spec.n, spec.p, spec.q) > 0.0
        else:
            with pytest.raises(DomainError):
                _pair_integral(spec.n, spec.n, spec.p, spec.q)
