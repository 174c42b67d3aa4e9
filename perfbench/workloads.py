"""Workload inputs for the verification benchmark, and the gate that checks
the records `verify` returns for them.

A workload is a list of (tag, point) pairs.  The benchmark sends each pair
to `cli.run_verification` as a one-point grid, so the program receives only
the generated points and every record can be timed on its own.

  default-grid  the 696-record default `verify` grid in its default order;
                inputs repeat (each (n, p, q) at many (tau, x)), so the
                Gauss-Jacobi rule cache is hit.
  random-grid   the same 696 points, every nonzero continuous coordinate
                jittered by a seeded uniform +-5% factor, in seeded
                shuffled order; no two points share a quadrature rule, so
                the rule cache is bypassed.
  exact-series  thm3/thm4 at n = 0..16, p = 35.5, plus lem5/lem6: no
                quadrature at all, only exact Fraction arithmetic.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from fracimage import cli

WORKLOADS = ("default-grid", "random-grid", "exact-series")

# Coordinates never jittered: n is a degree, and p fixes the polynomial
# family (p > 2n+1 keeps it orthogonal).
FIXED_SYMBOLS = frozenset({"n", "p"})
JITTER = 0.05

# Largest -log10 of a relative difference that a double can show; a
# difference of exactly 0 and an empty set of comparisons both read as this.
DIGITS_CAP = -math.log10(2.0**-53)

# Lemmas with a quadrature check and no independent oracle: their records
# carry the quadrature value in oracle_value too.
QUADRATURE_ONLY_TAGS = frozenset({"lem1", "lem2", "lem3", "lem4"})


def _expand(tag: str, grid: dict[str, list]) -> list[tuple[str, dict]]:
    symbols = list(grid)
    return [
        (tag, dict(zip(symbols, combo)))
        for combo in itertools.product(*(grid[s] for s in symbols))
    ]


def default_grid() -> list[tuple[str, dict]]:
    points = []
    for tag in cli.ALL_TAGS:
        points += _expand(tag, cli.DEFAULT_GRIDS[tag])
    return points


def random_grid(seed: int) -> list[tuple[str, dict]]:
    rng = random.Random(seed)
    points = []
    for tag, point in default_grid():
        jittered = {
            s: v if s in FIXED_SYMBOLS or v == 0 else v * rng.uniform(1 - JITTER, 1 + JITTER)
            for s, v in point.items()
        }
        points.append((tag, jittered))
    rng.shuffle(points)
    return points


def exact_series() -> list[tuple[str, dict]]:
    points = []
    for tag in ("thm3", "thm4"):
        grid = dict(cli.DEFAULT_GRIDS[tag], n=list(range(17)), p=[35.5])
        points += _expand(tag, grid)
    for tag in ("lem5", "lem6"):
        points += _expand(tag, cli.DEFAULT_GRIDS[tag])
    return points


def make(name: str, seed: int) -> list[tuple[str, dict]]:
    """The workload's points; only random-grid depends on the seed."""
    if name == "default-grid":
        return default_grid()
    if name == "random-grid":
        return random_grid(seed)
    if name == "exact-series":
        return exact_series()
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def one_point_config(tag: str, point: dict) -> cli.SweepConfig:
    return cli.SweepConfig(identities=[tag], grids={tag: {s: [v] for s, v in point.items()}})


def expects_quadrature(tag: str, point: dict) -> bool:
    """Whether the record must carry a quadrature value: every integral
    family, with the five-parameter ones only on their single-series
    slices (alpha' = 0 or beta' = 0 left, alpha = 0 or beta = 0 right)."""
    if tag in ("thm3", "thm4", "lem5", "lem6"):
        return False
    if tag in ("thm1", "lem1"):
        return point["delta_prime"] == 0 or point["mu_prime"] == 0
    if tag in ("thm2", "lem2"):
        return point["delta"] == 0 or point["mu"] == 0
    return True


def digits(rel_diff: float) -> float:
    return min(-math.log10(rel_diff), DIGITS_CAP) if rel_diff > 0 else DIGITS_CAP


@dataclass
class Check:
    """Outcome of checking one record.  `wrong` (a verdict or value that
    disagrees) fails the run; `omitted` (a quadrature check the program
    declined, saying why) is counted and reported, not failed."""

    wrong: str | None = None
    omitted: str | None = None
    oracle_digits: float | None = None
    quad_digits: float | None = None


def check_record(tag: str, point: dict, result, cfg: cli.SweepConfig) -> Check:
    """Gate one answer: `result` is the list `run_verification` returned for
    the one-point grid, or the exception it raised.

    Wrong: an exception escaped, the answer is not one record for the point
    sent, the verdict is not PASS, or the values the record carries do not
    agree to the configured tolerances (recomputed here, not read from the
    verdict).  Omitted: the quadrature check did not run on a point whose
    kernel supports it."""
    if isinstance(result, BaseException):
        return Check(wrong=f"exception {type(result).__name__}: {result}")
    if len(result) != 1 or result[0].identity != tag or result[0].point != point:
        return Check(wrong="records do not match the point sent")
    rec = result[0]
    if rec.verdict != "PASS":
        return Check(wrong=f"verdict {rec.verdict}: {rec.ledger_note}")
    if rec.closed_form_value is None:
        return Check(wrong="no closed-form value")
    check = Check()
    if tag not in QUADRATURE_ONLY_TAGS:
        if rec.oracle_value is None:
            return Check(wrong="no oracle value")
        diff = cli.rel_diff(rec.closed_form_value, rec.oracle_value)
        if not diff <= cfg.tol_oracle:
            return Check(wrong=f"oracle rel diff {diff:.3e} above {cfg.tol_oracle:g}")
        check.oracle_digits = digits(diff)
    if rec.quadrature_value is not None:
        diff = cli.rel_diff(rec.quadrature_value, rec.closed_form_value)
        if not diff <= cfg.tol_quadrature:
            return Check(wrong=f"quadrature rel diff {diff:.3e} above {cfg.tol_quadrature:g}")
        check.quad_digits = digits(diff)
    elif expects_quadrature(tag, point):
        check.omitted = f"{tag}: {rec.ledger_note or 'no quadrature value'}"
    return check
