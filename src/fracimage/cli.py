"""Verification command line.

Verbs:
  eval    evaluate one function, image, operator application, closed
          form, or oracle at a point
  verify  run identity checks over parameter grids and write one JSON
          line per (identity, point)
  sweep   tabulate values over a grid as CSV for external plotting
  report  summarize a verification record file and print the
          corrections ledger

Operator parameters are addressed on the command line as delta,
delta-prime, mu, mu-prime, epsilon for the five-parameter operators;
delta, mu, epsilon for the three-parameter family; delta alone for the
one-parameter family; epsilon (weight exponent) and delta (order) for
the two-parameter family. The Python API uses alpha, alpha_prime, beta,
beta_prime, gamma / alpha, beta, eta / alpha / eta, alpha for the same
positions (operators.FAMILIES); flag values map positionally. verify
and sweep write each record (sweep: each CSV row) to --out as soon as it
is computed, in grid order.

Exit codes: 0 all pass, 1 any verification failure, 2 domain or config
error, 3 convergence error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    NonConvergedError,
    PoleError,
    UnsupportedKernelError,
)
from .gammafns import gamma_product_eval
from .hypergeom import appell_f3, pfq
from .identities import (
    AS_PRINTED_IDS,
    CORRECTIONS,
    IDENTITY_FAMILY,
    IdentityId,
    corrections_for,
    deriv_composition_oracle,
    image_rhs,
    lhs_oracle,
    quadrature_value,
)
from .jacobi import JacobiSpec, PolySpec, jacobi_p, m_poly
from .operators import (
    FAMILIES,
    Family,
    OperatorSpec,
    power_image,
    saigo_left_as_msm,
    saigo_right_as_msm,
)
from .quadrature import DEFAULT_CONFIG, QuadConfig, node_power, operator_apply

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3

# single power-image checks, tagged like the identities
LEMMA_FAMILY = {
    "lem1": Family.MSM_LEFT_INT,
    "lem2": Family.MSM_RIGHT_INT,
    "lem3": Family.SAIGO_LEFT,
    "lem4": Family.SAIGO_RIGHT,
    "lem5": Family.MSM_LEFT_DERIV,
    "lem6": Family.MSM_RIGHT_DERIV,
}

IDENTITY_TAGS = [i.value for i in IdentityId]
ALL_TAGS = IDENTITY_TAGS + sorted(LEMMA_FAMILY)

# default verification grids; user config replaces lists per symbol
DEFAULT_GRIDS: dict[str, dict[str, list]] = {
    "thm1": {
        "delta": [0.5], "delta_prime": [0.0, 0.3], "mu": [0.2],
        "mu_prime": [0.4], "epsilon": [1.1],
        "n": [0, 1, 2, 3], "p": [9.0], "q": [0.0, 1.5],
        "tau": [2.0, 3.5], "x": [0.5, 1.0, 2.0],
    },
    "thm2": {
        "delta": [0.0, 0.5], "delta_prime": [0.3], "mu": [0.2],
        "mu_prime": [0.4], "epsilon": [1.1],
        "n": [0, 1, 2, 3], "p": [9.0], "q": [0.0, 1.5],
        "tau": [2.0, 3.5], "x": [1.0, 2.0, 4.0],
    },
    "thm3": {
        "delta": [0.5], "delta_prime": [0.3], "mu": [0.2],
        "mu_prime": [0.4], "epsilon": [1.1],
        "n": [0, 1, 2, 3], "p": [9.0], "q": [0.0, 1.5],
        "tau": [2.0, 3.5], "x": [0.5, 1.0, 2.0],
    },
    "thm4": {
        "delta": [0.5], "delta_prime": [0.3], "mu": [0.2],
        "mu_prime": [0.4], "epsilon": [1.1],
        "n": [0, 1, 2, 3], "p": [9.0], "q": [0.0, 1.5],
        "tau": [2.0, 3.5], "x": [1.0, 2.0, 4.0],
    },
    "cor1": {
        "delta": [0.6], "mu": [0.2], "epsilon": [0.4],
        "n": [0, 1, 2, 3], "p": [9.0], "q": [0.0, 1.5],
        "tau": [2.0, 3.5], "x": [0.5, 1.0, 2.0],
    },
    "cor2": {
        "delta": [0.5, 1.25],
        "n": [0, 1, 2, 3], "p": [9.0], "q": [0.0, 1.5],
        "tau": [2.0, 3.5], "x": [0.5, 1.0, 2.0],
    },
    "cor3": {
        "epsilon": [0.5], "delta": [0.75],
        "n": [0, 1, 2, 3], "p": [9.0], "q": [0.0, 1.5],
        "tau": [2.0, 3.5], "x": [0.5, 1.0, 2.0],
    },
    "cor4": {
        "delta": [0.6], "mu": [0.2], "epsilon": [0.4],
        "n": [0, 1, 2, 3], "p": [9.0], "q": [0.0, 1.5],
        "tau": [0.5, 1.125], "x": [1.0, 2.0, 4.0],
    },
    "cor5": {
        "delta": [0.3, 0.5],
        "n": [0, 1, 2, 3], "p": [9.0], "q": [0.0, 1.5],
        "tau": [0.25, 0.4375], "x": [1.0, 2.0, 4.0],
    },
    "cor6": {
        "epsilon": [0.8], "delta": [0.5],
        "n": [0, 1, 2, 3], "p": [9.0], "q": [0.0, 1.5],
        "tau": [0.25, 0.5], "x": [1.0, 2.0, 4.0],
    },
    # bare power images against quadrature; lem1/lem2 stay on the
    # single-series kernel slices the quadrature supports
    "lem1": {
        "delta": [0.5], "delta_prime": [0.0], "mu": [0.2],
        "mu_prime": [0.4], "epsilon": [1.1],
        "tau": [1.5, 2.5], "x": [0.5, 2.0],
    },
    "lem2": {
        "delta": [0.0], "delta_prime": [0.3], "mu": [0.2],
        "mu_prime": [0.4], "epsilon": [1.1],
        "tau": [1.5, 2.5], "x": [1.0, 2.0],
    },
    "lem3": {
        "delta": [0.6], "mu": [0.2], "epsilon": [0.4],
        "tau": [1.5, 2.5], "x": [0.5, 2.0],
    },
    # epsilon = 0 keeps the five-parameter embedding on the slice the
    # right-sided quadrature supports, so the reduction check runs too
    "lem4": {
        "delta": [0.6], "mu": [0.2], "epsilon": [0.0],
        "tau": [0.5, 0.75], "x": [1.0, 2.0],
    },
    "lem5": {
        "delta": [0.3], "delta_prime": [0.4], "mu": [0.1],
        "mu_prime": [0.2], "epsilon": [0.6],
        "tau": [3.0, 4.5], "x": [0.7, 2.0],
    },
    "lem6": {
        "delta": [0.3], "delta_prime": [0.4], "mu": [0.1],
        "mu_prime": [0.2], "epsilon": [0.6],
        "tau": [3.0, 4.5], "x": [0.7, 2.0],
    },
}


@dataclass
class SweepConfig:
    identities: list[str]
    grids: dict[str, dict[str, list]]
    tol_oracle: float = 1e-10
    tol_quadrature: float = 1e-6
    tol_reduction: float = 1e-8
    as_printed: bool = False
    out: str = "verification.jsonl"


@dataclass
class VerificationRecord:
    identity: str
    point: dict
    oracle_value: float | None
    closed_form_value: float | None
    quadrature_value: float | None
    rel_diff: float
    verdict: str
    ledger_note: str | None = None


def _num(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".17g")


def _show(v) -> str:
    """Human-facing number: shortest exact form, integers without .0"""
    f = float(v)
    if f.is_integer() and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


def _json_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_json_value(u) for u in v) + "]"
    if isinstance(v, dict):
        return "{" + ",".join(
            f"{json.dumps(k)}:{_json_value(u)}" for k, u in v.items()
        ) + "}"
    return _num(v)


def _json_line(obj: dict) -> str:
    """One JSON object, fixed key order, floats at 17 significant digits."""
    return _json_value(obj) + "\n"


def _record_obj(rec: VerificationRecord) -> dict:
    return {
        "identity": rec.identity,
        "point": rec.point,
        "oracle_value": rec.oracle_value,
        "closed_form_value": rec.closed_form_value,
        "quadrature_value": rec.quadrature_value,
        "rel_diff": rec.rel_diff,
        "verdict": rec.verdict,
        "ledger_note": rec.ledger_note,
    }


def rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _quad_config(cfg: SweepConfig) -> QuadConfig:
    """Quadrature convergence target matched to the check tolerance.

    Two digits of headroom below the comparison tolerance is enough for
    the verdict; demanding full machine accuracy instead makes strongly
    singular weights (exponents near -1) fail to stabilize, because the
    node accuracy of very-high-order rules becomes the limit."""
    return QuadConfig(tol=max(cfg.tol_quadrature * 1e-2, 1e-12))


# ---------------------------------------------------------------------------
# grid expansion and point evaluation

def _tag_family(tag: str) -> Family:
    return LEMMA_FAMILY.get(tag) or IDENTITY_FAMILY[IdentityId(tag)]


def _point_symbols(tag: str) -> list[str]:
    symbols = list(FAMILIES[_tag_family(tag)].symbols)
    if tag not in LEMMA_FAMILY:
        symbols += ["n", "p", "q"]
    return symbols + ["tau", "x"]


def _expand_grid(tag: str, grid: dict[str, list]) -> list[dict]:
    symbols = _point_symbols(tag)
    missing = [s for s in symbols if s not in grid or not grid[s]]
    if missing:
        raise ConfigError(f"{tag}: no grid values for {', '.join(missing)}")
    extra = sorted(set(grid) - set(symbols))
    if extra:
        raise ConfigError(f"{tag}: unknown grid symbols {', '.join(extra)}")
    points = []
    for combo in itertools.product(*(grid[s] for s in symbols)):
        points.append(dict(zip(symbols, combo)))
    return points


def _op_params(tag: str, point: dict) -> tuple[float, ...]:
    return tuple(float(point[s]) for s in FAMILIES[_tag_family(tag)].symbols)


def _monomial_for(family: Family, tau: float):
    """The family's monomial convention and its decay hints."""
    spec = FAMILIES[family]
    power = spec.monomial_power(tau)
    hint = "power_at_inf" if spec.right else "power_at_zero"
    return (lambda t: node_power(t, power)), {hint: power}


def _underflow_note(**values: float | None) -> str | None:
    """Why comparing these values would show nothing: one of them is zero
    or below the normal range, so it carries few or no significant bits."""
    for name, value in values.items():
        if value is not None and abs(value) < sys.float_info.min:
            return (f"{name} {_num(value)} underflows (below "
                    f"{_num(sys.float_info.min)} in magnitude); not compared")
    return None


def _identity_record(tag: str, point: dict, cfg: SweepConfig) -> VerificationRecord:
    identity = IdentityId(tag)
    params = _op_params(tag, point)
    poly = PolySpec(int(point["n"]), float(point["p"]), float(point["q"]))
    tau, x = float(point["tau"]), float(point["x"])
    try:
        closed = image_rhs(
            identity, params, poly, tau, x, as_printed=cfg.as_printed
        ).value
        oracle = lhs_oracle(identity, params, poly, tau, x)
    except (DomainError, PoleError) as exc:
        return VerificationRecord(
            tag, point, None, None, None, 0.0, "SKIPPED(domain)", str(exc)
        )
    notes = []
    try:
        quad = quadrature_value(identity, params, poly, tau, x, _quad_config(cfg))
    except NonConvergedError as exc:
        # supplementary check only: the oracle-vs-closed-form verdict
        # stands, but the omission is recorded
        quad = None
        notes.append(f"quadrature comparison omitted: {exc}")
    quad_val = None if quad is None else quad.value
    diff = rel_diff(closed, oracle)
    underflow = _underflow_note(
        oracle_value=oracle, closed_form_value=closed, quadrature_value=quad_val
    )
    if underflow:
        return VerificationRecord(
            tag, point, oracle, closed, quad_val, diff, "SKIPPED(underflow)",
            "; ".join(notes + [underflow]),
        )
    ok = diff <= cfg.tol_oracle
    if quad_val is not None and rel_diff(quad_val, closed) > cfg.tol_quadrature:
        ok = False
        notes.append("quadrature disagrees with the closed form")
    if not ok and cfg.as_printed and identity in AS_PRINTED_IDS:
        correction = next(c for c in corrections_for(identity) if c.evaluable)
        notes.append(
            f"as-printed schema; adjudicated correction "
            f"{correction.key}: {correction.implemented}"
        )
    return VerificationRecord(
        tag, point, oracle, closed, quad_val, diff, "PASS" if ok else "FAIL",
        "; ".join(notes) or None,
    )


def _lemma_record(tag: str, point: dict, cfg: SweepConfig) -> VerificationRecord:
    family = LEMMA_FAMILY[tag]
    op = OperatorSpec(family, _op_params(tag, point))
    tau, x = float(point["tau"]), float(point["x"])
    try:
        closed = power_image(op, tau).value_at(x)
    except (DomainError, PoleError) as exc:
        return VerificationRecord(
            tag, point, None, None, None, 0.0, "SKIPPED(domain)", str(exc)
        )

    if FAMILIES[family].quadrature is None:
        side = "right" if FAMILIES[family].right else "left"
        oracle = deriv_composition_oracle(side, op.params, tau, x)
        diff = rel_diff(closed, oracle)
        note = _underflow_note(oracle_value=oracle, closed_form_value=closed)
        verdict = "PASS" if diff <= cfg.tol_oracle else "FAIL"
        verdict = "SKIPPED(underflow)" if note else verdict
        return VerificationRecord(tag, point, oracle, closed, None, diff, verdict, note)

    f, hints = _monomial_for(family, tau)
    qcfg = _quad_config(cfg)
    embed_quad = None
    try:
        quad = operator_apply(op, f, x, qcfg, **hints)
        if tag in ("lem3", "lem4"):
            # quadrature-vs-quadrature reduction: the three-parameter
            # operator must match its five-parameter embedding
            embed = (saigo_left_as_msm if tag == "lem3" else saigo_right_as_msm)(
                *op.params
            )
            try:
                embed_quad = operator_apply(embed, f, x, qcfg, **hints)
            except UnsupportedKernelError:
                pass
    except UnsupportedKernelError as exc:
        return VerificationRecord(
            tag, point, None, closed, None, 0.0,
            "SKIPPED(unsupported-kernel)", str(exc),
        )
    except NonConvergedError as exc:
        return VerificationRecord(
            tag, point, None, closed, None, 0.0, "SKIPPED(nonconverged)", str(exc)
        )
    diff = rel_diff(closed, quad.value)
    note = _underflow_note(
        closed_form_value=closed, quadrature_value=quad.value,
        embedding_quadrature_value=None if embed_quad is None else embed_quad.value,
    )
    if note:
        return VerificationRecord(
            tag, point, quad.value, closed, quad.value, diff, "SKIPPED(underflow)", note
        )
    ok = diff <= cfg.tol_quadrature
    if embed_quad is not None:
        embed_diff = rel_diff(embed_quad.value, quad.value)
        if embed_diff > cfg.tol_reduction:
            ok = False
            note = (
                "five-parameter embedding quadrature disagrees: "
                f"rel diff {embed_diff:.3e}"
            )
    return VerificationRecord(
        tag, point, quad.value, closed, quad.value, diff,
        "PASS" if ok else "FAIL", note,
    )


def _evaluate_point(tag: str, point: dict, cfg: SweepConfig) -> VerificationRecord:
    if tag in LEMMA_FAMILY:
        return _lemma_record(tag, point, cfg)
    return _identity_record(tag, point, cfg)


def iter_verification(cfg: SweepConfig) -> Iterator[VerificationRecord]:
    """The records for the configured grids, in deterministic order, each
    evaluated when drawn; every grid is expanded (and checked) first."""
    grids = [(tag, _expand_grid(tag, cfg.grids.get(tag, DEFAULT_GRIDS[tag])))
             for tag in cfg.identities]
    return (_evaluate_point(tag, p, cfg) for tag, points in grids for p in points)


def run_verification(cfg: SweepConfig) -> list[VerificationRecord]:
    """All records for the configured grids, in deterministic order."""
    return list(iter_verification(cfg))


# ---------------------------------------------------------------------------
# config file

def _parse_scalar(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"not a number: {text!r}") from exc


def _parse_list(text: str) -> list:
    items = [t for t in (piece.strip() for piece in text.split(",")) if t]
    if not items:
        raise ConfigError(f"empty value list: {text!r}")
    return [_parse_scalar(t) for t in items]


def load_config_file(path: str) -> dict[str, str]:
    """Flat key-value lines: `key = value`, # starts a comment."""
    pairs: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def build_sweep_config(pairs: dict[str, str], args) -> SweepConfig:
    cfg = SweepConfig(identities=list(ALL_TAGS), grids={})
    for key, value in pairs.items():
        if key == "identities":
            tags = [t.strip() for t in value.split(",") if t.strip()]
            bad = [t for t in tags if t not in ALL_TAGS]
            if bad:
                raise ConfigError(f"unknown identities: {', '.join(bad)}")
            cfg.identities = tags
        elif key == "tol_oracle":
            cfg.tol_oracle = float(_parse_scalar(value))
        elif key == "tol_quadrature":
            cfg.tol_quadrature = float(_parse_scalar(value))
        elif key == "tol_reduction":
            cfg.tol_reduction = float(_parse_scalar(value))
        elif key == "as_printed":
            if value not in ("true", "false"):
                raise ConfigError(f"as_printed must be true or false, got {value!r}")
            cfg.as_printed = value == "true"
        elif key == "out":
            cfg.out = value
        elif "." in key:
            tag, symbol = key.split(".", 1)
            if tag not in ALL_TAGS:
                raise ConfigError(f"unknown identity in key {key!r}")
            if symbol not in _point_symbols(tag):
                raise ConfigError(f"unknown symbol in key {key!r}")
            cfg.grids.setdefault(tag, {})[symbol] = _parse_list(value)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    # a partial per-identity grid falls back to defaults symbol by symbol
    for tag, grid in cfg.grids.items():
        base = dict(DEFAULT_GRIDS[tag])
        base.update(grid)
        cfg.grids[tag] = base
    if getattr(args, "identities", None):
        tags = [t.strip() for t in args.identities.split(",") if t.strip()]
        bad = [t for t in tags if t not in ALL_TAGS]
        if bad:
            raise ConfigError(f"unknown identities: {', '.join(bad)}")
        cfg.identities = tags
    if getattr(args, "as_printed", False):
        cfg.as_printed = True
    if getattr(args, "out", None):
        cfg.out = args.out
    # a tolerance of 0 is a valid request, so test for presence, not truth
    if getattr(args, "tol_oracle", None) is not None:
        cfg.tol_oracle = args.tol_oracle
    if getattr(args, "tol_quadrature", None) is not None:
        cfg.tol_quadrature = args.tol_quadrature
    if getattr(args, "tol_reduction", None) is not None:
        cfg.tol_reduction = args.tol_reduction
    return cfg


# ---------------------------------------------------------------------------
# eval

def _family_from_args(args) -> Family:
    if not args.family:
        raise ConfigError("--family is required for this target")
    return Family(args.family)


def _params_from_args(args, family: Family) -> tuple[float, ...]:
    values = []
    for symbol in FAMILIES[family].symbols:
        value = getattr(args, symbol)
        if value is None:
            raise ConfigError(
                f"{family.value} needs --{symbol.replace('_', '-')}"
            )
        values.append(float(value))
    return tuple(values)


def _poly_from_args(args, default_degree: int | None = None) -> PolySpec:
    n = args.n if args.n is not None else default_degree
    if n is None or args.p is None or args.q is None:
        raise ConfigError("this target needs --n, --p, and --q")
    return PolySpec(int(n), float(args.p), float(args.q))


def _identity_from_args(args) -> IdentityId:
    if not args.identity:
        raise ConfigError("--identity is required for this target")
    try:
        return IdentityId(args.identity)
    except ValueError as exc:
        raise ConfigError(
            f"unknown identity {args.identity!r}; "
            f"choose from {', '.join(IDENTITY_TAGS)}"
        ) from exc


def _parse_exact(text: str) -> Fraction:
    # decimal literals become exact rationals so terminating series print
    # without float-parse residue (0.4 stays 2/5, not the nearest double)
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a number: {text.strip()!r}") from exc


def _parse_exact_list(text: str | None) -> tuple[Fraction, ...]:
    if text is None or not text.strip():
        return ()
    return tuple(_parse_exact(piece) for piece in text.split(",")
                 if piece.strip())


def cmd_eval(args) -> int:
    target = args.target
    if target == "pfq":
        if args.arg is None:
            raise ConfigError("eval pfq needs --num, --den, --arg")
        num = _parse_exact_list(args.num)
        den = _parse_exact_list(args.den)
        arg = _parse_exact(args.arg)
        value = pfq(num, den, arg)
        print(f"value = {_show(value)}")
        out = {"target": "pfq", "num": [float(a) for a in num],
               "den": [float(b) for b in den],
               "arg": float(arg), "value": value}
    elif target == "f3":
        needed = (args.a, args.a_prime, args.b, args.b_prime, args.c,
                  args.w, args.z)
        if any(v is None for v in needed):
            raise ConfigError(
                "eval f3 needs --a, --a-prime, --b, --b-prime, --c, --w, --z"
            )
        value = appell_f3(*needed)
        print(f"value = {_show(value)}")
        out = {"target": "f3", "a": args.a, "a_prime": args.a_prime,
               "b": args.b, "b_prime": args.b_prime, "c": args.c,
               "w": args.w, "z": args.z, "value": value}
    elif target == "mpoly":
        poly = _poly_from_args(args)
        if args.x is None:
            raise ConfigError("eval mpoly needs --x")
        value = m_poly(poly, args.x, method=args.method)
        print(f"value = {_show(value)}")
        out = {"target": "mpoly", "n": poly.n, "p": poly.p, "q": poly.q,
               "x": args.x, "method": args.method, "value": value}
    elif target == "jacobi":
        if args.n is None or args.alpha is None or args.beta is None \
                or args.x is None:
            raise ConfigError("eval jacobi needs --n, --alpha, --beta, --x")
        spec = JacobiSpec(int(args.n), args.alpha, args.beta)
        value = jacobi_p(spec, args.x)
        print(f"value = {_show(value)}")
        out = {"target": "jacobi", "n": spec.n, "alpha": spec.alpha,
               "beta": spec.beta, "x": args.x, "value": value}
    elif target == "image":
        family = _family_from_args(args)
        params = _params_from_args(args, family)
        if args.tau is None:
            raise ConfigError("eval image needs --tau")
        op = OperatorSpec(family, params)
        img = power_image(op, args.tau)
        pv = img.prefactor_value()
        print(f"prefactor = {_show(pv)}")
        print(f"exponent = {_show(img.exponent)}")
        out = {"target": "image", "family": family.value,
               "params": dict(zip(FAMILIES[family].symbols, params)),
               "tau": args.tau,
               "numerator_args": list(img.prefactor.numerator_args),
               "denominator_args": list(img.prefactor.denominator_args),
               "prefactor": pv, "exponent": img.exponent}
        if args.x is not None:
            value = img.value_at(args.x)
            print(f"value = {_show(value)}")
            out["x"] = args.x
            out["value"] = value
    elif target == "apply":
        family = _family_from_args(args)
        params = _params_from_args(args, family)
        if args.tau is None or args.x is None:
            raise ConfigError("eval apply needs --tau and --x")
        poly = None if args.n is None else _poly_from_args(args)
        if poly is None:
            f, hints = _monomial_for(family, args.tau)
            op = OperatorSpec(family, params)
            quad = operator_apply(op, f, args.x, DEFAULT_CONFIG, **hints)
        else:
            identity = next(i for i, fam in IDENTITY_FAMILY.items() if fam is family)
            quad = quadrature_value(identity, params, poly, args.tau, args.x)
            if quad is None:
                raise UnsupportedKernelError(
                    f"{family.value} has no supported quadrature here"
                )
        print(f"value = {_show(quad.value)}")
        print(f"error = {_show(quad.error)}")
        print(f"nodes = {quad.nodes}")
        out = {"target": "apply", "family": family.value,
               "params": dict(zip(FAMILIES[family].symbols, params)),
               "tau": args.tau, "x": args.x, "value": quad.value,
               "error": quad.error, "nodes": quad.nodes}
        if poly is not None:
            out["n"], out["p"], out["q"] = poly.n, poly.p, poly.q
    elif target == "rhs":
        identity = _identity_from_args(args)
        family = IDENTITY_FAMILY[identity]
        params = _params_from_args(args, family)
        poly = _poly_from_args(args)
        if args.tau is None or args.x is None:
            raise ConfigError("eval rhs needs --tau and --x")
        ev = image_rhs(identity, params, poly, args.tau, args.x,
                       as_printed=args.as_printed)
        pv = gamma_product_eval(ev.prefactor).to_float()
        print(f"value = {_show(ev.value)}")
        print(f"prefactor = {_show(pv)}")
        print(f"series = {_show(ev.series_value)}")
        print(f"exponent = {_show(ev.exponent)}")
        out = {"target": "rhs", "identity": identity.value,
               "params": dict(zip(FAMILIES[family].symbols, params)),
               "n": poly.n, "p": poly.p, "q": poly.q,
               "tau": args.tau, "x": args.x,
               "as_printed": args.as_printed,
               "numerator_args": list(ev.prefactor.numerator_args),
               "denominator_args": list(ev.prefactor.denominator_args),
               "sign": ev.prefactor.sign,
               "prefactor": pv, "series": ev.series_value,
               "argument": ev.argument, "exponent": ev.exponent,
               "value": ev.value}
    elif target == "oracle":
        identity = _identity_from_args(args)
        family = IDENTITY_FAMILY[identity]
        params = _params_from_args(args, family)
        poly = _poly_from_args(args)
        if args.tau is None or args.x is None:
            raise ConfigError("eval oracle needs --tau and --x")
        value = lhs_oracle(identity, params, poly, args.tau, args.x)
        print(f"value = {_show(value)}")
        out = {"target": "oracle", "identity": identity.value,
               "params": dict(zip(FAMILIES[family].symbols, params)),
               "n": poly.n, "p": poly.p, "q": poly.q,
               "tau": args.tau, "x": args.x, "value": value}
    else:
        raise ConfigError(f"unknown eval target {target!r}")
    sys.stdout.write(_json_line(out))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify / sweep / report

def cmd_verify(args) -> int:
    pairs = load_config_file(args.config) if args.config else {}
    cfg = build_sweep_config(pairs, args)
    pending = iter_verification(cfg)
    records = []
    with open(cfg.out, "w", encoding="utf-8", newline="\n") as handle:
        for rec in pending:
            handle.write(_json_line(_record_obj(rec)))
            records.append(rec)
    n_pass = sum(1 for r in records if r.verdict == "PASS")
    n_fail = sum(1 for r in records if r.verdict == "FAIL")
    n_skip = len(records) - n_pass - n_fail
    print(
        f"verify: {len(records)} records, {n_pass} PASS, {n_fail} FAIL, "
        f"{n_skip} SKIPPED -> {cfg.out}"
    )
    return EXIT_FAIL if n_fail else EXIT_PASS


def cmd_sweep(args) -> int:
    pairs = load_config_file(args.config) if args.config else {}
    cfg = build_sweep_config(pairs, args)
    if args.identity:
        if args.identity not in ALL_TAGS:
            raise ConfigError(f"unknown identity {args.identity!r}")
        cfg.identities = [args.identity]
    pending = iter_verification(cfg)
    symbol_sets = [_point_symbols(tag) for tag in cfg.identities]
    symbols = list(dict.fromkeys(s for group in symbol_sets for s in group))
    header = ["identity"] + symbols + [
        "oracle_value", "closed_form_value", "quadrature_value", "rel_diff",
        "verdict",
    ]
    out = open(cfg.out, "w", encoding="utf-8", newline="") if args.out \
        else sys.stdout
    rows = 0
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for rec in pending:
            row = [rec.identity]
            row += [
                _num(rec.point[s]) if s in rec.point else "" for s in symbols
            ]
            for value in (rec.oracle_value, rec.closed_form_value,
                          rec.quadrature_value):
                row.append("" if value is None else _num(value))
            row.append(_num(rec.rel_diff))
            row.append(rec.verdict)
            writer.writerow(row)
            rows += 1
    finally:
        if out is not sys.stdout:
            out.close()
    if args.out:
        print(f"sweep: {rows} rows -> {cfg.out}")
    return EXIT_PASS


def cmd_report(args) -> int:
    try:
        with open(args.records, encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read records {args.records}: {exc}") from exc
    records = [json.loads(line) for line in lines]
    by_identity: dict[str, dict] = {}
    for rec in records:
        stats = by_identity.setdefault(
            rec["identity"],
            {"PASS": 0, "FAIL": 0, "SKIPPED": 0, "max_rel_diff": 0.0},
        )
        verdict = rec["verdict"]
        key = "SKIPPED" if verdict.startswith("SKIPPED") else verdict
        stats[key] += 1
        stats["max_rel_diff"] = max(stats["max_rel_diff"], rec["rel_diff"])
    print(f"{'identity':<10} {'pass':>6} {'fail':>6} {'skipped':>8} "
          f"{'max rel diff':>14}")
    for tag in sorted(by_identity):
        stats = by_identity[tag]
        print(f"{tag:<10} {stats['PASS']:>6} {stats['FAIL']:>6} "
              f"{stats['SKIPPED']:>8} {stats['max_rel_diff']:>14.3e}")
    n_fail = sum(s["FAIL"] for s in by_identity.values())
    n_pass = sum(s["PASS"] for s in by_identity.values())
    n_skip = sum(s["SKIPPED"] for s in by_identity.values())
    print(f"total: {len(records)} records, {n_pass} pass, {n_fail} fail, "
          f"{n_skip} skipped")
    if n_fail:
        print("\nfailures:")
        for rec in records:
            if rec["verdict"] != "FAIL":
                continue
            point = ", ".join(f"{k}={_num(v)}" for k, v in rec["point"].items())
            print(f"  {rec['identity']} [{point}]")
            print(f"    oracle {_num(rec['oracle_value'])}  "
                  f"closed {_num(rec['closed_form_value'])}  "
                  f"rel diff {_num(rec['rel_diff'])}")
            if rec.get("ledger_note"):
                print(f"    note: {rec['ledger_note']}")
    print("\ncorrections ledger (printed statement vs implemented form):")
    for c in CORRECTIONS:
        print(f"  [{c.key}] {c.identity}")
        print(f"    printed:     {c.printed}")
        print(f"    implemented: {c.implemented}")
    return EXIT_FAIL if n_fail else EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing

def _add_eval_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("target", choices=[
        "pfq", "f3", "mpoly", "jacobi", "image", "apply", "rhs", "oracle",
    ])
    sub.add_argument("--num", help="comma-separated numerator parameters")
    sub.add_argument("--den", help="comma-separated denominator parameters")
    sub.add_argument("--arg", help="series argument")
    sub.add_argument("--a", type=float)
    sub.add_argument("--a-prime", type=float)
    sub.add_argument("--b", type=float)
    sub.add_argument("--b-prime", type=float)
    sub.add_argument("--c", type=float)
    sub.add_argument("--w", type=float)
    sub.add_argument("--z", type=float)
    sub.add_argument("--n", type=int, help="polynomial degree")
    sub.add_argument("--p", type=float)
    sub.add_argument("--q", type=float)
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--beta", type=float)
    sub.add_argument("--x", type=float)
    sub.add_argument("--method", default="direct",
                     choices=["direct", "hypergeometric"])
    sub.add_argument("--family", choices=[f.value for f in Family])
    sub.add_argument("--identity", help="thm1..thm4, cor1..cor6")
    sub.add_argument("--tau", type=float, help="monomial order")
    sub.add_argument("--delta", type=float)
    sub.add_argument("--delta-prime", type=float)
    sub.add_argument("--mu", type=float)
    sub.add_argument("--mu-prime", type=float)
    sub.add_argument("--epsilon", type=float)
    sub.add_argument("--as-printed", action="store_true",
                     help="evaluate the as-printed identity variant")


def _add_sweep_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--out", help="output path")
    sub.add_argument("--identities", help="comma-separated identity tags")
    sub.add_argument("--as-printed", action="store_true",
                     help="verify the as-printed variants instead")
    sub.add_argument("--tol-oracle", type=float)
    sub.add_argument("--tol-quadrature", type=float)
    sub.add_argument("--tol-reduction", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracimage",
        description="Evaluate and verify fractional-operator power images",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    _add_eval_flags(subs.add_parser(
        "eval", help="evaluate one target at a point"))
    _add_sweep_flags(subs.add_parser(
        "verify", help="run identity checks over grids"))
    sweep = subs.add_parser("sweep", help="tabulate values over grids as CSV")
    _add_sweep_flags(sweep)
    sweep.add_argument("--identity", help="restrict the sweep to one tag")
    report = subs.add_parser("report", help="summarize a records file")
    report.add_argument("records", help="JSON-lines records path")
    return parser


def _merge_list_flags(argv: list[str]) -> list[str]:
    """Join `--num -1,3` into `--num=-1,3` so argparse keeps the value."""
    merged = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in ("--num", "--den") and i + 1 < len(argv) \
                and argv[i + 1].startswith("-"):
            merged.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            merged.append(token)
    return merged


def main(argv: list[str] | None = None) -> int:
    argv = _merge_list_flags(sys.argv[1:] if argv is None else list(argv))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_report(args)
    except (DomainError, PoleError, ConfigError, UnsupportedKernelError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (NonConvergedError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
