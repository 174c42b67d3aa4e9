"""Writes float_series.json: seeded float-series inputs and the doubles that
hypergeom's float stream returns for them, all as float.hex() strings.

The inputs are drawn from one seeded generator: a and b in [-6, 6], |c| in
[0.05, 8] with either sign, so terms may grow before they fall and both
branches of the Neumaier step run. They cover

- gauss_2f1 at z in (0, 1), the direct series, with a slow block at z in
  [0.98, 0.995];
- gauss_2f1 at z in (-1, 0), summed at z/(z-1) through Pfaff's
  transformation;
- pfq of other shapes: 1F1 and 0F1 at arguments of either sign (an
  alternating series cancels, so the partial sum falls below the term),
  and 3F2 at |z| < 1, again with a slow block;
- appell_f3 at |w|, |z| <= 0.9.

A direct value uses only + - * / on doubles, so it holds on any IEEE
platform. A value marked "libm" went through (1 - z) ** -a, Pfaff's
prefactor, whose rounding is the platform's pow: those were frozen on
x86-64 Linux with glibc 2.36 (Python 3.11.7). tests/test_hypergeom.py
checks every value bit for bit, so any change to an operation inside the
series loops shows there. Run by hand from the root of the checkout, only
to extend the set (regenerating freezes whatever the code returns now):

    PYTHONPATH=src python tests/data/make_float_series.py
"""

import json
import random
from pathlib import Path

from fracimage.hypergeom import appell_f3, pfq

SEED = 2017


def lower(rng: random.Random) -> float:
    """A lower parameter c with |c| in [0.05, 8], either sign."""
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 8.0)


def upper(rng: random.Random) -> float:
    return rng.uniform(-6.0, 6.0)


def series_cases(rng: random.Random):
    """(num, den, z, libm) for every float pfq case."""
    for i in range(100):  # 2F1, direct; the last 20 slow
        z = rng.uniform(0.98, 0.995) if i >= 80 else rng.uniform(0.01, 0.95)
        yield (upper(rng), upper(rng)), (lower(rng),), z, False
    for i in range(60):  # 2F1 through Pfaff; the last 15 near z = -1
        z = -rng.uniform(0.95, 0.995) if i >= 45 else -rng.uniform(0.01, 0.95)
        yield (upper(rng), upper(rng)), (lower(rng),), z, True
    for _ in range(30):
        yield (upper(rng),), (lower(rng),), rng.uniform(-12.0, 12.0), False
    for _ in range(20):
        yield (), (lower(rng),), rng.uniform(-30.0, 30.0), False
    for i in range(30):  # 3F2; the last 8 slow
        z = rng.uniform(0.98, 0.995) if i >= 22 else rng.uniform(-0.95, 0.95)
        yield (upper(rng), upper(rng), upper(rng)), (lower(rng), lower(rng)), z, False


def f3_cases(rng: random.Random):
    """(a, a', b, b', c, w, z) for every appell_f3 case."""
    for _ in range(30):
        a, a_prime, b, b_prime = (upper(rng) for _ in range(4))
        c = lower(rng)
        yield a, a_prime, b, b_prime, c, rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)


def main() -> None:
    rng = random.Random(SEED)
    cases = []
    for num, den, z, libm in series_cases(rng):
        cases.append({
            "kind": "pfq", "num": [a.hex() for a in num], "den": [b.hex() for b in den],
            "z": z.hex(), "libm": libm, "value": pfq(num, den, z).hex(),
        })
    for args in f3_cases(rng):
        cases.append({
            "kind": "f3", "args": [t.hex() for t in args], "libm": args[-1] < 0.0,
            "value": appell_f3(*args).hex(),
        })
    about = ("float pfq and appell_f3 values as float.hex(), frozen bit for bit; "
             "libm values on glibc 2.36; see make_float_series.py")
    lines = ",\n".join("  " + json.dumps(case) for case in cases)
    path = Path(__file__).with_name("float_series.json")
    path.write_text(f'{{\n "about": {json.dumps(about)},\n "seed": {SEED},\n'
                    f' "cases": [\n{lines}\n ]\n}}\n', encoding="utf-8")


if __name__ == "__main__":
    main()
