"""Bit-identity guard for the Gauss-Jacobi rule builder, and its refusal
of exponents whose rules it cannot scale.

Each case is a list of (n, alpha, beta) rules, built by one gauss_jacobi
call per node count; its digest is the SHA-256 of the bytes of every
rule's nodes, then weights, in the case's order. The digests were
frozen from the builder that set up each rule on its own (numpy 2.4,
x86-64 Linux with glibc's libm, AVX-512), so a rewrite that changes the
arithmetic of any node or weight, even in the last bit, fails here. Another
platform's libm or numpy SIMD paths may round differently.
"""

import hashlib
import json
from pathlib import Path

import numpy
import pytest

from fracimage import gaussjacobi
from fracimage.errors import NonConvergedError
from fracimage.gaussjacobi import gauss_jacobi

GJ_64 = json.loads((Path(__file__).parent / "data" / "gauss_jacobi_64.json").read_text())

# (n, alpha, beta) for the weight (1-x)^alpha (1+x)^beta
CASES = {
    # one weight at 64 and 128 nodes, and three weights a sweep, at
    # exponents in random-grid's range
    "pair-0,3.15": [(64, 0.0, 3.15), (128, 0.0, 3.15)],
    "pair--0.71,-0.97": [(64, -0.71, -0.97), (128, -0.71, -0.97)],
    "pair-0.31,1.37": [(64, 0.31, 1.37), (128, 0.31, 1.37)],
    "batch-6": [(n, 0.0, b) for b in (-0.97, 0.1, 3.15) for n in (64, 128)],
    # Gegenbauer, Legendre, alpha + beta = -1 and alpha + beta = 0
    **{
        f"edge-{c['exponent_at_1']},{c['exponent_at_0']}": [
            (n, c["exponent_at_1"], c["exponent_at_0"]) for n in (64, 128)
        ]
        for c in GJ_64["cases"]
    },
    # exponents above ASYMPTOTIC_LIMIT start from the sign scan
    **{
        f"scan-{a},{b}": [(64, a, b), (512, a, b)]
        for a, b in ((10.5, 0.0), (-0.5, 30.0), (1.0, 170.5))
    },
    "scan-mixed": [(64, 0.3, -0.4), (64, 10.5, 10.5), (512, 30.0, 0.0), (128, 0.3, -0.4)],
    # a quadrature's first rule (16 nodes) and its first doubling (32)
    "small-0,3.15": [(16, 0.0, 3.15), (32, 0.0, 3.15)],
    "small--0.71,-0.97": [(16, -0.71, -0.97), (32, -0.71, -0.97)],
    "small-batch-6": [(n, 0.0, b) for b in (-0.97, 0.1, 3.15) for n in (16, 32)],
    "small-scan-10.5,0.0": [(16, 10.5, 0.0), (32, 10.5, 0.0)],
}

DIGESTS = {
    "pair-0,3.15": "9aaf9ec48d58398d842f3cf43275db60a93411dc1c2c2774a5fc1858437bc899",
    "pair--0.71,-0.97": "031b04c9d1d59a7f788d59ce3d862f6022d682188a864cf18762ab99362c7a7a",
    "pair-0.31,1.37": "739524b2b655cafc9bc34dabc794c32a84993aba87ef8ecfb9e30d3308f93339",
    "batch-6": "e02879fb3e25543a92688f116d996ddf09583c9a2cd55b03791a2e96c602c1cc",
    "edge-0.3,0.3": "82cb1b6482a9a7b439b1c5c74d5242c6595a3af176a0356b7eafcd39730ace4c",
    "edge-0.0,0.0": "ee3603ec446ca20467ba73e784f6636d075ab7f8e41243ca7e519ff9ebffbb37",
    "edge--0.3,-0.7": "18dd2a284502ac4d1d0089c952898778e3f47c93c50ccbb161ebea826134c4d3",
    "edge--0.25,0.25": "adc023727211986f40de6996eef2afe5bea70b4e4986901a3c6a0db8e3eff803",
    "scan-10.5,0.0": "1f77d89a7913d05f66570f618e57272bf69a042a2e523e1c73fa9feabd36590d",
    "scan--0.5,30.0": "42646e282d2089f45319c546d4c465d0d364c54e37f26bbf4f9836cb6d8e343a",
    "scan-1.0,170.5": "923b1abf5161447485057e1f896dd14c59f018d51bc91960a13fa7d3fe609fca",
    "scan-mixed": "59fddb47a137d1c3966b2d73abc8da002013852a32f51209ac8451ab7593350e",
    "small-0,3.15": "000f769db5d408f88e5fdb0cd8ea6f8c27f82f94b7bb470e4671d8c40d3b20f9",
    "small--0.71,-0.97": "bd8afdca0026277bb73a1d5874318290e30b9908d23425d930ead184a459ddaf",
    "small-batch-6": "fafa12af36e1175dc650268508ea05f4abdfedfd1112114c681b223bbc5816c4",
    "small-scan-10.5,0.0": "9a672546618fd0eb39b8884514ae414e2873a497ab80f0de0847b840dbe107cc",
}


@pytest.mark.parametrize("name", list(CASES))
def test_rules_are_bit_identical_to_the_frozen_digests(name):
    rules = CASES[name]
    built = {}
    for n in dict.fromkeys(n for n, _, _ in rules):
        weights = [(alpha, beta) for size, alpha, beta in rules if size == n]
        built.update(((n, *pair), rule) for pair, rule in zip(weights, gauss_jacobi(n, weights)))
    digest = hashlib.sha256()
    for x, w in map(built.get, rules):
        digest.update(x.tobytes())
        digest.update(w.tobytes())
    assert digest.hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("alpha", [1999.0, 1e308])
def test_exponents_past_the_double_range_raise_before_any_guess(monkeypatch, alpha):
    # the mass factor 2^(alpha+beta+1) overflows past these exponents; at
    # 1999 a scan of 8k angles was built first and the rule still failed
    # with "(34, 'Numerical result out of range')", and at 1e308 numpy's
    # linspace ended the run with "Maximum allowed size exceeded"
    def refuse(n, weights):
        raise AssertionError("guesses built for a rule that cannot be scaled")

    monkeypatch.setattr(gaussjacobi, "_asymptotic_guesses", refuse)
    monkeypatch.setattr(gaussjacobi, "_scanned_guesses", refuse)
    with pytest.raises(OverflowError) as exc:
        gauss_jacobi(64, [(0.3, -0.4), (alpha, 1.0)])
    assert f"(1-x)^{alpha!r} (1+x)^1.0" in str(exc.value)


@pytest.mark.parametrize("case", ["no-sweeps", "coincident-nodes"])
def test_a_rule_whose_zeros_are_not_found_is_not_converged(monkeypatch, case):
    built = []
    if case == "no-sweeps":
        monkeypatch.setattr(gaussjacobi, "MAX_SWEEPS", 0)
    else:
        # every guess on one angle settles every node of a half on one zero,
        # which _rules refuses; the scan then finds nothing either
        guesses, rules = gaussjacobi._asymptotic_guesses, gaussjacobi._rules

        def collapsed(n, weights):
            weights, phi, half = guesses(n, weights)
            return weights, numpy.full_like(phi, phi[0]), half

        monkeypatch.setattr(gaussjacobi, "_asymptotic_guesses", collapsed)
        monkeypatch.setattr(gaussjacobi, "_rules", lambda *a: built.append(rules(*a)) or built[-1])
        monkeypatch.setattr(gaussjacobi, "_scanned_guesses", lambda n, weights: ([], None, None))
    with pytest.raises(NonConvergedError, match=r"\(0\.3, -0\.4\) did not converge at 16 nodes"):
        gauss_jacobi(16, [(0.3, -0.4)])
    assert built == ([] if case == "no-sweeps" else [[None]])
