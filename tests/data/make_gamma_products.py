"""Writes gamma_products.json: seeded gamma products and what
gammafns.gamma_product_eval returns for each, the log magnitude as a
float.hex() string and the sign, or the refusal's type and message.

The products are drawn from one seeded generator. Each has one to four
arguments a side, sign +1 or -1, and they cover

- plain positive arguments in (0.01, 60);
- exact cancellations: an argument repeated on both sides, once or more
  often than the other side holds it, and a pole cancelled that way;
- negative non-integer arguments in (-40, 0), so Gamma changes sign;
- arguments within 1e-12 of a pole 0, -1, ..., -30, on either side of it;
- arguments past 2.5e305, where math.lgamma overflows and the log
  magnitude is +inf (numerator) or -inf (denominator);

and the refusals: an uncancelled pole in the numerator or the
denominator, a non-finite argument (NaN or +inf in either list, -inf in
either), and an overflowing log-gamma on both sides, whose inf - inf the
exact sum refuses.

The log magnitudes are sums of math.lgamma values, which CPython builds on
the platform's log and sin: they were frozen on x86-64 Linux with glibc
2.36 (Python 3.11.7), like tests/data/float_series.json. tests/test_gammafns.py
checks every value and every refusal bit for bit. Run by hand from the root
of the checkout, only to extend the set (regenerating freezes whatever the
code returns now):

    PYTHONPATH=src python tests/data/make_gamma_products.py
"""

import json
import math
import random
from pathlib import Path

from fracimage.gammafns import GammaProduct, gamma_product_eval

SEED = 3803


def positive(rng: random.Random) -> float:
    return rng.uniform(0.01, 60.0)


def negative(rng: random.Random) -> float:
    """A negative non-integer argument in (-40, 0)."""
    x = -rng.uniform(0.0, 40.0)
    return x if x != math.floor(x) else x - 0.5


def near_pole(rng: random.Random) -> float:
    """Within 1e-12 of one of 0, -1, ..., -30, on either side."""
    # at least 1e-14 away, which is past half the spacing of doubles near -30
    return -rng.randint(0, 30) + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-14.0, -12.0)


def huge(rng: random.Random) -> float:
    return rng.uniform(2.6e305, 1.7e308)


def mixed(rng: random.Random, k: int) -> list[float]:
    draw = (positive, negative, near_pole)
    return [rng.choice(draw)(rng) for _ in range(k)]


def sign(rng: random.Random) -> int:
    return rng.choice((1, -1))


def products(rng: random.Random):
    """(numerator, denominator, sign) for every case, values then refusals."""
    for _ in range(40):
        yield ([positive(rng) for _ in range(rng.randint(1, 4))],
               [positive(rng) for _ in range(rng.randint(0, 4))], sign(rng))
    for _ in range(30):
        yield mixed(rng, rng.randint(1, 4)), [negative(rng) for _ in range(rng.randint(1, 3))], sign(rng)
    for _ in range(30):
        num, den = mixed(rng, rng.randint(1, 3)), mixed(rng, rng.randint(1, 3))
        for _ in range(rng.randint(1, 3)):  # shared factors, some repeated
            shared = rng.choice((positive, negative, near_pole))(rng)
            num.insert(rng.randint(0, len(num)), shared)
            den.insert(rng.randint(0, len(den)), shared)
            if rng.random() < 0.3:
                num.append(shared)
        yield num, den, sign(rng)
    for _ in range(10):  # a pole, cancelled exactly
        pole = -float(rng.randint(0, 20))
        yield [pole, *mixed(rng, 2)], [*mixed(rng, 1), pole], sign(rng)
    for _ in range(30):
        yield ([near_pole(rng) for _ in range(rng.randint(1, 3))],
               [near_pole(rng) for _ in range(rng.randint(1, 3))], sign(rng))
    for i in range(24):  # lgamma past the double range on one side
        big = [huge(rng) for _ in range(rng.randint(1, 2))]
        other = mixed(rng, rng.randint(1, 3))
        if i % 3 == 2:  # and cancelled on the other
            other.append(big[0])
            big.append(positive(rng))
        yield (big, other, sign(rng)) if i % 2 == 0 else (other, big, sign(rng))
    yield [], [], 1
    yield [], [], -1
    # refusals
    for i in range(6):
        pole = -float(rng.randint(0, 40))
        yield [*mixed(rng, i % 3), pole], mixed(rng, 2), sign(rng)
        yield mixed(rng, 2), [pole, *mixed(rng, i % 3)], sign(rng)
    # every pole is named before any argument is found non-finite
    yield [pole, math.nan], [-float(rng.randint(0, 9))], 1
    yield [math.nan, positive(rng)], [-float(rng.randint(0, 9))], 1
    for bad in (math.nan, math.inf):
        yield [positive(rng), bad], mixed(rng, 2), sign(rng)
        yield mixed(rng, 2), [bad, positive(rng)], sign(rng)
    yield [positive(rng), -math.inf], mixed(rng, 1), 1
    yield mixed(rng, 1), [positive(rng), -math.inf], -1
    yield [math.inf, 2.5], [math.inf], 1
    for _ in range(4):
        yield [huge(rng), *mixed(rng, 1)], [huge(rng)], sign(rng)


def main() -> None:
    rng = random.Random(SEED)
    cases = []
    for num, den, s in products(rng):
        case = {"num": [a.hex() for a in num], "den": [b.hex() for b in den], "sign": s}
        try:
            value = gamma_product_eval(GammaProduct(tuple(num), tuple(den), s))
        except Exception as exc:  # every refusal, typed
            case["raises"] = [type(exc).__name__, str(exc)]
        else:
            case.update(log_magnitude=value.log_magnitude.hex(), value_sign=value.sign)
        cases.append(case)
    about = ("gamma_product_eval's log magnitude as float.hex() and sign, or its "
             "refusal, frozen bit for bit on glibc 2.36; see make_gamma_products.py")
    lines = ",\n".join("  " + json.dumps(case) for case in cases)
    path = Path(__file__).with_name("gamma_products.json")
    path.write_text(f'{{\n "about": {json.dumps(about)},\n "seed": {SEED},\n'
                    f' "cases": [\n{lines}\n ]\n}}\n', encoding="utf-8")


if __name__ == "__main__":
    main()
