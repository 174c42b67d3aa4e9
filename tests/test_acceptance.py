"""Acceptance gate: every criterion at its stated tolerance.

Each criterion prints one `ACCEPTANCE <id>: PASS/FAIL` line on the real
terminal (capture disabled) and then asserts, so a red run names the
failing grid points in the assertion message.
"""

import json
import math

from fracimage.cli import main
from fracimage.gammafns import GammaProduct, pochhammer
from fracimage.hypergeom import appell_f3, gauss_2f1
from fracimage.identities import (
    IdentityId,
    corrections_for,
    deriv_composition_oracle,
    image_rhs,
    lhs_oracle,
    quadrature_value,
)
from fracimage.jacobi import (
    PolySpec,
    m_jacobi_connection,
    m_poly,
    m_poly_coefficients,
    ode_residual,
)
from fracimage.operators import (
    ek_left,
    ek_right,
    msm_left_deriv,
    msm_right_deriv,
    power_image,
    rl_left,
    rl_right,
    saigo_left,
    saigo_left_as_msm,
    saigo_right,
    saigo_right_as_msm,
)
from fracimage.quadrature import operator_apply

MSM_SETS = [(0.5, 0.3, 0.2, 0.4, 1.1), (0.2, 0.1, 0.3, 0.5, 0.9)]

LEFT_X = [0.5, 1.0, 2.0]
RIGHT_X = [1.0, 2.0, 4.0]

# identity, parameter sets, tau values, x values
IDENTITY_GRIDS = [
    (IdentityId.THM2, MSM_SETS, [2.0, 3.5], RIGHT_X),
    (IdentityId.THM3, MSM_SETS, [2.0, 3.5], LEFT_X),
    (IdentityId.THM4, MSM_SETS, [2.0, 3.5], RIGHT_X),
    (IdentityId.COR1, [(0.6, 0.2, 0.4), (0.5, -0.25, 0.75)], [2.0, 3.5], LEFT_X),
    (IdentityId.COR2, [(0.5,), (1.25,)], [2.0, 3.5], LEFT_X),
    (IdentityId.COR3, [(0.5, 0.75), (1.25, 0.5)], [2.0, 3.5], LEFT_X),
    (IdentityId.COR4, [(0.6, 0.2, 0.4), (0.5, 0.25, 0.75)], [0.5, 1.125], RIGHT_X),
    (IdentityId.COR5, [(0.3,), (0.5,)], [0.25, 0.4375], RIGHT_X),
    (IdentityId.COR6, [(0.8, 0.5), (1.5, 0.25)], [0.25, 0.5], RIGHT_X),
]


def one(t):
    """Smooth factor of a bare monomial: its power goes into the weight."""
    return 1.0


def rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def announce(capsys, cid: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'}", flush=True)


def poly_grid():
    for n in range(6):
        for q in (0.0, 1.5):
            yield PolySpec(n, 2.0 * n + 3.0, q)


def test_acceptance_c1(capsys):
    # corrected closed form equals the exact finite-sum oracle everywhere;
    # the as-printed schema must fail somewhere and be in the ledger
    failures = []
    printed_refuted = False
    for params in MSM_SETS:
        for poly in poly_grid():
            for tau in (2.0, 3.5):
                for x in LEFT_X:
                    got = image_rhs(IdentityId.THM1, params, poly, tau, x).value
                    want = lhs_oracle(IdentityId.THM1, params, poly, tau, x)
                    d = rel(got, want)
                    if d > 1e-10:
                        failures.append((params, poly, tau, x, d))
                    printed = image_rhs(
                        IdentityId.THM1, params, poly, tau, x, as_printed=True
                    ).value
                    if rel(printed, want) > 1e-10:
                        printed_refuted = True
    ledger = [c for c in corrections_for(IdentityId.THM1) if c.edit is not None]
    ok = not failures and printed_refuted and bool(ledger)
    announce(capsys, "C1", ok)
    assert not failures, failures[:5]
    assert printed_refuted
    assert ledger


def test_acceptance_c2(capsys):
    failures = []
    for identity, sets, taus, xs in IDENTITY_GRIDS:
        for params in sets:
            for poly in poly_grid():
                for tau in taus:
                    for x in xs:
                        got = image_rhs(identity, params, poly, tau, x).value
                        want = lhs_oracle(identity, params, poly, tau, x)
                        d = rel(got, want)
                        if d > 1e-10:
                            failures.append((identity, params, poly, tau, x, d))
    ok = not failures
    announce(capsys, "C2", ok)
    assert not failures, failures[:5]


def test_acceptance_c3(capsys):
    failures = []
    qtol = 1e-8

    # (a) classical one-parameter images against direct quadrature
    for delta in (0.3, 0.5, 1.0):
        for tau in (1.0, 1.5, 2.5):
            for x in (1.0, 2.0):
                img = power_image(rl_left(delta), tau).value_at(x)
                quad = operator_apply(rl_left(delta), one, x, qtol, power=tau - 1.0)
                d = rel(img, quad.value)
                if d > 1e-8:
                    failures.append(("rl-left", delta, tau, x, d))

    # (b) three-parameter images, both sides, 3x3x3 parameter grid
    for alpha in (0.4, 0.7, 1.2):
        for beta in (-0.3, 0.0, 0.2):
            for eta in (0.6, 0.9, 1.4):
                for op, tau in (
                    (saigo_left(alpha, beta, eta), 1.5),
                    (saigo_right(alpha, beta, eta), 0.5),
                ):
                    img = power_image(op, tau).value_at(1.5)
                    quad = operator_apply(op, one, 1.5, qtol, power=tau - 1.0)
                    d = rel(img, quad.value)
                    if d > 1e-6:
                        failures.append((op.family.value, alpha, beta, eta, d))

    # (c) full identity statements, operator applied to the polynomial
    for identity, params, taus, xs in (
        (IdentityId.COR1, (0.6, 0.2, 0.4), (2.0, 3.5), LEFT_X),
        (IdentityId.COR4, (0.6, 0.2, 0.4), (0.5, 1.125), RIGHT_X),
    ):
        for n in range(4):
            for q in (0.0, 1.5):
                poly = PolySpec(n, 2.0 * n + 3.0, q)
                for tau in taus:
                    for x in xs:
                        closed = image_rhs(identity, params, poly, tau, x).value
                        quad = quadrature_value(
                            identity, params, poly, tau, x, qtol
                        )
                        assert quad is not None
                        d = rel(closed, quad.value)
                        if d > 1e-6:
                            failures.append((identity, poly, tau, x, d))
    ok = not failures
    announce(capsys, "C3", ok)
    assert not failures, failures[:5]


def test_acceptance_c4(capsys):
    # dyadic parameters make every affine gamma argument exact, so the
    # reduction chains must agree as argument multisets, not just values
    failures = []
    rl_right_tau = {0.5: 0.25, 1.25: -0.5}
    for alpha in (0.5, 1.25):
        for beta in (-0.25, 0.375):
            for eta in (0.75, 1.5):
                tau = 2.5
                s = power_image(saigo_left(alpha, beta, eta), tau)
                m = power_image(saigo_left_as_msm(alpha, beta, eta), tau)
                if not (s.prefactor.same_factors(m.prefactor)
                        and s.exponent == m.exponent):
                    failures.append(("left-embed", alpha, beta, eta))
                tau_r = 0.5
                sr = power_image(saigo_right(alpha, beta, eta), tau_r)
                mr = power_image(saigo_right_as_msm(alpha, beta, eta),
                                 1.0 - tau_r)
                if not (sr.prefactor.same_factors(mr.prefactor)
                        and sr.exponent == mr.exponent):
                    failures.append(("right-embed", alpha, beta, eta))
        for eta in (0.75, 1.5):
            s = power_image(saigo_left(alpha, -alpha, eta), 2.5)
            r = power_image(rl_left(alpha), 2.5)
            if not (s.prefactor.same_factors(r.prefactor)
                    and s.exponent == r.exponent):
                failures.append(("left-rl", alpha, eta))
            s = power_image(saigo_left(alpha, 0.0, eta), 2.5)
            e = power_image(ek_left(eta, alpha), 2.5)
            if not (s.prefactor.same_factors(e.prefactor)
                    and s.exponent == e.exponent):
                failures.append(("left-ek", alpha, eta))
            tr = rl_right_tau[alpha]
            s = power_image(saigo_right(alpha, -alpha, eta), tr)
            r = power_image(rl_right(alpha), tr)
            if not (s.prefactor.same_factors(r.prefactor)
                    and s.exponent == r.exponent):
                failures.append(("right-rl", alpha, eta))
            s = power_image(saigo_right(alpha, 0.0, eta), 0.5)
            e = power_image(ek_right(eta, alpha), 0.5)
            if not (s.prefactor.same_factors(e.prefactor)
                    and s.exponent == e.exponent):
                failures.append(("right-ek", alpha, eta))
    ok = not failures
    announce(capsys, "C4", ok)
    assert not failures, failures


def test_acceptance_c5(capsys):
    from fracimage.jacobi import _poly_eval
    from fracimage.quadrature import quad_endpoint_singular

    failures = []

    # explicit coefficient sum vs terminating hypergeometric form
    for n in range(9):
        for q in (0.0, 1.5):
            spec = PolySpec(n, 2.0 * n + 3.0, q)
            for x in (0.25, 1.0, 3.0):
                a = m_poly(spec, x, method="direct")
                b = m_poly(spec, x, method="hypergeometric")
                if rel(a, b) > 1e-12:
                    failures.append(("method", spec, x, rel(a, b)))

    # shifted-Jacobi connection
    for n in range(7):
        spec = PolySpec(n, 2.0 * n + 3.0, 0.7)
        for x in (0.25, 1.0, 3.0):
            lhs, rhs = m_jacobi_connection(spec, x)
            scale = max(abs(lhs), abs(rhs), 1.0)
            if abs(lhs - rhs) > 1e-11 * scale:
                failures.append(("connection", spec, x))

    # orthogonality on the half line, normalized off-diagonal mass
    for q in (0.0, 1.5):
        p = 9.0
        coeffs = [m_poly_coefficients(PolySpec(k, p, q)) for k in range(4)]

        def pair(m, n):
            def g(nodes):
                return [(1.0 - u) ** (m + n) * _poly_eval(coeffs[m], x) * _poly_eval(coeffs[n], x)
                        for u, x in ((u, u / (1.0 - u)) for u in nodes)]
            return quad_endpoint_singular(g, q, p - 2.0 - m - n).value

        norms = [pair(k, k) for k in range(4)]
        for m in range(4):
            for n in range(m + 1, 4):
                off = abs(pair(m, n)) / math.sqrt(norms[m] * norms[n])
                if off > 1e-8:
                    failures.append(("orthogonality", q, m, n, off))

    # corrected eigenvalue satisfies the ODE; the printed one cannot
    for n in range(9):
        spec = PolySpec(n, 2.0 * n + 3.0, 0.7)
        for i in range(12):
            x = 0.1 + i * 0.3
            lam = n * (n + 1.0 - spec.p)
            scale = 1.0 + abs(lam * m_poly(spec, x))
            if abs(ode_residual(spec, x)) > 1e-10 * scale:
                failures.append(("ode", spec, x))
    printed = ode_residual(PolySpec(1, 5.0, 0.0), 2.0, printed_eigenvalue=True)
    refuted = abs(printed) > 1.0

    ok = not failures and refuted
    announce(capsys, "C5", ok)
    assert not failures, failures[:5]
    assert refuted


def test_acceptance_c6(capsys):
    failures = []
    sets = [
        (0.0, 0.0, 0.0, 0.0, 0.6),
        (0.3, 0.4, 0.1, 0.2, 0.6),
        (0.5, 0.3, 0.2, 0.4, 1.1),
    ]
    for params in sets:
        for side, factory in (("left", msm_left_deriv),
                              ("right", msm_right_deriv)):
            for tau in (3.0, 4.5):
                for x in (0.7, 1.5, 2.0):
                    want = power_image(factory(*params), tau).value_at(x)
                    got = deriv_composition_oracle(factory(*params), tau, x)
                    d = rel(got, want)
                    if d > 1e-10:
                        failures.append((side, params, tau, x, d))

    # all-zeros order collapses to a single gamma ratio, exactly
    tau, eps = 3.0, 0.6
    img = power_image(msm_left_deriv(0.0, 0.0, 0.0, 0.0, eps), tau)
    plain = GammaProduct((tau,), (tau - eps,))
    collapsed = (img.prefactor.same_factors(plain)
                 and img.exponent == tau - eps - 1.0)
    ok = not failures and collapsed
    announce(capsys, "C6", ok)
    assert not failures, failures[:5]
    assert collapsed


def brute_f3(a, ap, b, bp, c, w, z, terms=80):
    total = 0.0
    for m in range(terms):
        for n in range(terms):
            total += (
                pochhammer(a, m) * pochhammer(ap, n)
                * pochhammer(b, m) * pochhammer(bp, n)
                / (pochhammer(c, m + n) * math.factorial(m)
                   * math.factorial(n))
                * w**m * z**n
            )
    return total


def test_acceptance_c7(capsys):
    failures = []
    cases = [
        (0.5, 0.3, 0.2, 0.4, 1.1, 0.5, -0.5),
        (0.5, 0.3, 0.2, 0.4, 1.1, -0.25, 0.5),
        (1.2, 0.7, 0.4, 0.9, 2.3, 0.5, 0.5),
        (0.2, 0.1, 0.3, 0.5, 0.9, -0.5, -0.5),
    ]
    for a, ap, b, bp, c, w, z in cases:
        got = appell_f3(a, ap, b, bp, c, w, z)
        want = brute_f3(a, ap, b, bp, c, w, z)
        if rel(got, want) > 1e-12:
            failures.append(("brute", a, ap, b, bp, c, w, z))
    for a, b, c, w in ((0.5, 0.2, 1.1, 0.4), (1.2, 0.4, 2.3, -0.35)):
        got = appell_f3(a, 0.0, b, 0.0, c, w, 0.7)
        want = gauss_2f1(a, b, c, w)
        if rel(got, want) > 1e-12:
            failures.append(("collapse", a, b, c, w))
    ok = not failures
    announce(capsys, "C7", ok)
    assert not failures, failures


def test_acceptance_c8(tmp_path, capsys):
    ok = True

    # byte-identical default verification runs
    first = tmp_path / "run1.jsonl"
    second = tmp_path / "run2.jsonl"
    rc1 = main(["verify", "--out", str(first)])
    rc2 = main(["verify", "--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    ok = ok and rc1 == 0 and rc2 == 0 and identical

    # seeded pass / fail / skip fixtures drive the exit-code contract
    pass_cfg = tmp_path / "pass.cfg"
    pass_cfg.write_text(
        "identities = cor2\ncor2.delta = 0.5\ncor2.n = 1\ncor2.p = 9\n"
        "cor2.q = 0\ncor2.tau = 2\ncor2.x = 1\n", encoding="utf-8"
    )
    rc_pass = main(["verify", "--config", str(pass_cfg),
                    "--out", str(tmp_path / "p.jsonl")])

    fail_out = tmp_path / "f.jsonl"
    rc_fail = main(["verify", "--config", str(pass_cfg), "--as-printed",
                    "--identities", "thm1", "--out", str(fail_out)])
    fail_recs = [json.loads(line) for line in
                 fail_out.read_text(encoding="utf-8").splitlines()]

    skip_cfg = tmp_path / "skip.cfg"
    skip_cfg.write_text(
        "identities = cor2\ncor2.delta = 0.5\ncor2.n = 1\ncor2.p = 9\n"
        "cor2.q = 0\ncor2.tau = -0.5\ncor2.x = 1\n", encoding="utf-8"
    )
    skip_out = tmp_path / "s.jsonl"
    rc_skip = main(["verify", "--config", str(skip_cfg),
                    "--out", str(skip_out)])
    skip_recs = [json.loads(line) for line in
                 skip_out.read_text(encoding="utf-8").splitlines()]

    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("nonsense = 1\n", encoding="utf-8")
    rc_bad = main(["verify", "--config", str(bad_cfg)])

    # eta = mu: the Saigo kernel's logarithmic endpoint keeps its series
    # from converging at the nodes next to u = 0
    rc_conv = main(["eval", "apply", "--family", "saigo-left",
                    "--delta", "0.5", "--mu", "0.3", "--epsilon", "0.3",
                    "--tau", "0.2", "--x", "1"])

    capsys.readouterr()
    ok = ok and rc_pass == 0
    ok = ok and rc_fail == 1
    ok = ok and any(r["verdict"] == "FAIL" for r in fail_recs)
    ok = ok and rc_skip == 0
    ok = ok and all(r["verdict"].startswith("SKIPPED") for r in skip_recs)
    ok = ok and rc_bad == 2
    ok = ok and rc_conv == 3

    announce(capsys, "C8", ok)
    assert rc1 == 0 and rc2 == 0
    assert identical
    assert rc_pass == 0
    assert rc_fail == 1 and any(r["verdict"] == "FAIL" for r in fail_recs)
    assert rc_skip == 0
    assert skip_recs and all(r["verdict"].startswith("SKIPPED")
                             for r in skip_recs)
    assert rc_bad == 2
    assert rc_conv == 3
