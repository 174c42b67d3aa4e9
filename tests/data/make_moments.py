"""Writes modified_moments.json: exact modified moments of Jacobi weights.

For the weight (1-y)^a0 (1+y)^a1 on [-1, 1] (u^a0 (1-u)^a1 at y = 1 - 2u),
M_k / M_0 = 3F2(-k, k, a0+1; 1/2, a0+a1+2; 1), a terminating sum, since
T_k(y) = 2F1(-k, k; 1/2; (1-y)/2) and each power of (1-y)/2 integrates to
a Beta function. The terms reach about (3 + 2 sqrt 2)^k, so each sum runs at 60 + 0.8k
digits and is checked against a second run 40 digits finer; values are
rounded to 35 decimal places, then kept to 30 digits. Run by hand from the root of the checkout with local
mpmath (not a dependency of the package):

    python tests/data/make_moments.py
"""

import json
from pathlib import Path

import mpmath as mp

PAIRS = [
    (-0.99, -0.99), (-0.99, 0.0), (-0.5, -0.5), (-0.5, 3.15), (0.0, 0.0),
    (3.15, 12.0), (12.0, -0.5), (30.0, 0.0), (0.0, 30.0), (100.0, 3.15),
    (0.0, 170.5), (170.5, -0.99), (100.0, 100.0),
]
KS = [0, 1, 2, 3, 4, 5, 7, 8, 13, 15, 16, 31, 32, 63, 127, 255, 511, 1023,
      2047, 2048, 4094, 4095]


def ratio(a0: float, a1: float, k: int, dps: int):
    with mp.workdps(dps):
        a0, a1 = mp.mpf(a0), mp.mpf(a1)
        total, term = mp.mpf(0), mp.mpf(1)
        for j in range(k + 1):
            total += term
            term *= (j - k) * (k + j) * (a0 + 1 + j) / ((mp.mpf(1) / 2 + j) * (a0 + a1 + 2 + j) * (j + 1))
        return +total


def main() -> None:
    cases = []
    for a0, a1 in PAIRS:
        ratios = []
        for k in KS:
            dps = 60 + int(0.8 * k)
            value, check = ratio(a0, a1, k, dps), ratio(a0, a1, k, dps + 40)
            assert abs(value - check) <= mp.mpf(10) ** -45
            with mp.workdps(dps):
                value = mp.nint(value * 10**35) / 10**35
            ratios.append(mp.nstr(value, 30, min_fixed=1, max_fixed=0))
        cases.append({"exponent_at_0": a0, "exponent_at_1": a1, "ratios": ratios})
    out = {
        "about": "M_k / M_0 of (1-y)^a0 (1+y)^a1 on [-1, 1], as 30-digit strings; see make_moments.py",
        "mpmath": mp.__version__,
        "k": KS,
        "cases": cases,
    }
    path = Path(__file__).with_name("modified_moments.json")
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
