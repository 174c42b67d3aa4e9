"""Writes fejer_16.json: Fejer's first rule at 16 nodes, the size of every
quadrature's first rule, in mpmath, for four edge-case weights u^a0 (1-u)^a1.

The nodes are u_j = sin^2(pi (2j+1) / (4n)); the weights are
w_j = mass (2/n) (1/2 + sum_(k=1)^(n-1) (M_k / M_0) cos(k phi_j)),
phi_j = pi (2j+1) / (2n), mass = B(a0+1, a1+1), each M_k / M_0 the exact
terminating sum of make_moments.py. Everything runs at 60 + 0.8n digits
and is checked against a run 40 digits finer; each value is stored as the
double nearest to it. Run by hand from the root of the checkout with local
mpmath (not a dependency of the package):

    python tests/data/make_fejer_rules.py
"""

import json
from pathlib import Path

import mpmath as mp
from make_moments import ratio

# (a0, a1): alpha = beta (Gegenbauer), alpha = beta = 0 (Legendre),
# alpha + beta = -1 and alpha + beta = 0
PAIRS = [(0.3, 0.3), (0.0, 0.0), (-0.7, -0.3), (0.25, -0.25)]


def rule(a0: float, a1: float, n: int, dps: int):
    ratios = [ratio(a0, a1, k, dps) for k in range(n)]
    with mp.workdps(dps):
        mass = mp.beta(mp.mpf(a0) + 1, mp.mpf(a1) + 1)
        nodes, weights = [], []
        for j in range(n):
            nodes.append(mp.sin(mp.pi * (2 * j + 1) / (4 * n)) ** 2)
            phi = mp.pi * (2 * j + 1) / (2 * n)
            total = mp.mpf(1) / 2 + mp.fsum(ratios[k] * mp.cos(k * phi) for k in range(1, n))
            weights.append(mass * 2 * total / n)
        return nodes, weights


def main() -> None:
    out = {
        "about": "Fejer's 16-point rule for u^a0 (1-u)^a1 on (0, 1), nodes ascending, "
                 "weights with the mass; see make_fejer_rules.py",
        "mpmath": mp.__version__,
    }
    n, cases = 16, []
    for a0, a1 in PAIRS:
        dps = 60 + int(0.8 * n)
        nodes, weights = rule(a0, a1, n, dps)
        check = rule(a0, a1, n, dps + 40)
        for got, want in zip(nodes + weights, check[0] + check[1]):
            assert abs(got - want) <= mp.mpf(10) ** -45 * abs(want)
        cases.append({"exponent_at_0": a0, "exponent_at_1": a1,
                      "nodes": [float(v) for v in nodes],
                      "weights": [float(v) for v in weights]})
    out["cases"] = cases
    path = Path(__file__).with_name("fejer_16.json")
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
