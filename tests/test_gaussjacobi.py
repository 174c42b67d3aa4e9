"""Bit-identity guard for the rule builder behind quadrature.roots_jacobi
(the name of perfbench's rule-build hook, from the Gauss-Jacobi rule it
first timed), and its refusal of exponents whose rules it cannot scale.

Each case is a list of (n, alpha, beta) rules for the weight
(1-x)^alpha (1+x)^beta, that is u^beta (1-u)^alpha, built by one
roots_jacobi call per rule; its digest is the SHA-256 of the
little-endian doubles of every rule's nodes, then weights, then mass, in
the case's order. The digests were frozen from the Fejer rule (Python
3.11, x86-64 Linux with glibc's libm), so a rewrite that changes the
arithmetic of any node, weight or mass, even in the last bit, fails here.
Another platform's libm may round sin, cos or gamma differently.
"""

import hashlib
import struct

import pytest

from fracimage import quadrature
from fracimage.quadrature import _chebyshev, roots_jacobi

EDGES = [(0.3, 0.3), (0.0, 0.0), (-0.3, -0.7), (-0.25, 0.25)]

# (n, alpha, beta) for the weight (1-x)^alpha (1+x)^beta
CASES = {
    # one weight at 64 and 128 nodes, and three weights at both, at
    # exponents in random-grid's range
    "pair-0,3.15": [(64, 0.0, 3.15), (128, 0.0, 3.15)],
    "pair--0.71,-0.97": [(64, -0.71, -0.97), (128, -0.71, -0.97)],
    "pair-0.31,1.37": [(64, 0.31, 1.37), (128, 0.31, 1.37)],
    "batch-6": [(n, 0.0, b) for b in (-0.97, 0.1, 3.15) for n in (64, 128)],
    # Gegenbauer, Legendre, alpha + beta = -1 and alpha + beta = 0
    **{f"edge-{a},{b}": [(n, a, b) for n in (64, 128)] for a, b in EDGES},
    # large exponents, where the moments fall fastest
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
    "pair-0,3.15": "8963c0b9aa923da649c834976d70f570343662584dbdd11a53c620e65e8d1063",
    "pair--0.71,-0.97": "a7da860f3703a9d411a0d837e35bdb3aa67895fcc4ecd5d3dda6f19279602a34",
    "pair-0.31,1.37": "db5aad3eb5677e26bff5046b5bcf788e19b728429868d690f68e7b740fa1b43a",
    "batch-6": "dc0fe030a16bec2d34102f9641356c63a5427d4898af7f497e69075192a66004",
    "edge-0.3,0.3": "e8dea756378808fc2139b15b453cf650e56c4b7194ab5b01f2b267cada0522a6",
    "edge-0.0,0.0": "fe36037245dbc2cfd410313f1119cba29f8c67dd49ca6960885d6e1e1117ed58",
    "edge--0.3,-0.7": "731ed7fb7092779ecd7aa8f3e87c26cd539dde558cc188169931e433bd885c28",
    "edge--0.25,0.25": "c44bd7a65968e02596c4b4c5479b81c7d49a7fea633efab1cb53253a4e719142",
    "scan-10.5,0.0": "05173a786d7edc9afe0a0bb07eb4227e49db8cbcf2388fd312001f722a6f1570",
    "scan--0.5,30.0": "1d9a07440a25aa1a2af29f80ca08af6801bdbe8a9c9a749780f55d4a3f7a02f3",
    "scan-1.0,170.5": "2b99329f288138d1db31e7f760601f382770becb264286d55a593679da2cc129",
    "scan-mixed": "91853fd0fc2a838053f7ff7760f54daac77718b205f66685eea8c0fde08b0916",
    "small-0,3.15": "25d69ff7452c213d5df8f12256f5a16dd15386ee949cd01899ef0bb3860c65db",
    "small--0.71,-0.97": "24baf771931197ce00b005e502b7a64f8660feec7288dd183672a3523306fdda",
    "small-batch-6": "98b5d3a1e5f3d2170a51af41fde63d3ad5bba0ec7a0dc5d924592f72ad1015cf",
    "small-scan-10.5,0.0": "8878c7dd903adc70fbf74043cc052650dac3ce90f162fdb5219d127fb47f7c55",
}


def doubles(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


@pytest.mark.parametrize("name", list(CASES))
def test_rules_are_bit_identical_to_the_frozen_digests(name):
    digest = hashlib.sha256()
    for n, alpha, beta in CASES[name]:
        w, mass = roots_jacobi(n, beta, alpha)
        digest.update(doubles(_chebyshev(n)[0]))
        digest.update(doubles(w))
        digest.update(doubles([mass]))
    assert digest.hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("alpha", [1999.0, 1e308])
def test_exponents_past_the_double_range_raise_before_any_guess(monkeypatch, alpha):
    # the mass factor 2^(alpha+beta+1) overflows past these exponents; the
    # refusal names the weight before its rule is built
    def refuse(moments):
        raise AssertionError("a rule built for a weight that cannot be scaled")

    monkeypatch.setattr(quadrature, "_fejer_weights", refuse)
    with pytest.raises(OverflowError) as exc:
        roots_jacobi(64, 1.0, alpha)
    assert f"(1-x)^{alpha!r} (1+x)^1.0" in str(exc.value)
