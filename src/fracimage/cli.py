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

TAGS describes each verification tag once: thm1-thm4 and cor1-cor6 are
the paper's identities, lem1-lem6 the bare power image of one family.
_evaluate_point judges each closed form against one reference: the exact
finite-sum oracle (thm/cor), the derivative composition (lem5/lem6) or
quadrature (lem1-lem4, which also compare the operator with its
five-parameter embedding where TAGS names one: lem3/lem4; a point whose
embedding has no supported quadrature notes that this check did not run).

Exit codes: 0 all pass, 1 any verification failure, 2 domain or config
error, 3 convergence error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass
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
from .quadrature import QuadConfig, operator_apply

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3


@dataclass(frozen=True)
class TagSpec:
    """One verification tag: the identity it checks (None for a bare
    power-image lemma), its operator family, and the five-parameter
    embedding whose quadrature must match the operator's, if any."""

    identity: IdentityId | None
    family: Family
    embedding: Callable[..., OperatorSpec] | None = None


TAGS: dict[str, TagSpec] = {
    **{i.value: TagSpec(i, family) for i, family in IDENTITY_FAMILY.items()},
    # single power-image checks, tagged like the identities
    "lem1": TagSpec(None, Family.MSM_LEFT_INT),
    "lem2": TagSpec(None, Family.MSM_RIGHT_INT),
    "lem3": TagSpec(None, Family.SAIGO_LEFT, saigo_left_as_msm),
    "lem4": TagSpec(None, Family.SAIGO_RIGHT, saigo_right_as_msm),
    "lem5": TagSpec(None, Family.MSM_LEFT_DERIV),
    "lem6": TagSpec(None, Family.MSM_RIGHT_DERIV),
}

ALL_TAGS = list(TAGS)

# default verification grids; user config replaces lists per symbol.
# Every identity runs its polynomial factor M_n^(p,q) over POLY_GRID.
POLY_GRID = {"n": [0, 1, 2, 3], "p": [9.0], "q": [0.0, 1.5]}
DEFAULT_GRIDS: dict[str, dict[str, list]] = {
    "thm1": {
        "delta": [0.5], "delta_prime": [0.0, 0.3], "mu": [0.2],
        "mu_prime": [0.4], "epsilon": [1.1], **POLY_GRID,
        "tau": [2.0, 3.5], "x": [0.5, 1.0, 2.0],
    },
    "thm2": {
        "delta": [0.0, 0.5], "delta_prime": [0.3], "mu": [0.2],
        "mu_prime": [0.4], "epsilon": [1.1], **POLY_GRID,
        "tau": [2.0, 3.5], "x": [1.0, 2.0, 4.0],
    },
    "thm3": {
        "delta": [0.5], "delta_prime": [0.3], "mu": [0.2],
        "mu_prime": [0.4], "epsilon": [1.1], **POLY_GRID,
        "tau": [2.0, 3.5], "x": [0.5, 1.0, 2.0],
    },
    "thm4": {
        "delta": [0.5], "delta_prime": [0.3], "mu": [0.2],
        "mu_prime": [0.4], "epsilon": [1.1], **POLY_GRID,
        "tau": [2.0, 3.5], "x": [1.0, 2.0, 4.0],
    },
    "cor1": {
        "delta": [0.6], "mu": [0.2], "epsilon": [0.4], **POLY_GRID,
        "tau": [2.0, 3.5], "x": [0.5, 1.0, 2.0],
    },
    "cor2": {
        "delta": [0.5, 1.25], **POLY_GRID,
        "tau": [2.0, 3.5], "x": [0.5, 1.0, 2.0],
    },
    "cor3": {
        "epsilon": [0.5], "delta": [0.75], **POLY_GRID,
        "tau": [2.0, 3.5], "x": [0.5, 1.0, 2.0],
    },
    "cor4": {
        "delta": [0.6], "mu": [0.2], "epsilon": [0.4], **POLY_GRID,
        "tau": [0.5, 1.125], "x": [1.0, 2.0, 4.0],
    },
    "cor5": {
        "delta": [0.3, 0.5], **POLY_GRID,
        "tau": [0.25, 0.4375], "x": [1.0, 2.0, 4.0],
    },
    "cor6": {
        "epsilon": [0.8], "delta": [0.5], **POLY_GRID,
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

def _point_symbols(tag: str) -> list[str]:
    symbols = list(FAMILIES[TAGS[tag].family].symbols)
    if TAGS[tag].identity is not None:
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
    return [dict(zip(symbols, combo))
            for combo in itertools.product(*(grid[s] for s in symbols))]


def _op_params(tag: str, point: dict) -> tuple[float, ...]:
    return tuple(float(point[s]) for s in FAMILIES[TAGS[tag].family].symbols)


def _unit(t):
    """Smooth factor of the bare monomial operand: its whole power goes
    into the quadrature weight (operator_apply's power)."""
    return 1.0


def _underflow_note(**values: float | None) -> str | None:
    """Why comparing these values would show nothing: one of them is zero
    or below the normal range, so it carries few or no significant bits."""
    for name, value in values.items():
        if value is not None and abs(value) < sys.float_info.min:
            return (f"{name} {_num(value)} underflows (below "
                    f"{_num(sys.float_info.min)} in magnitude); not compared")
    return None


def _evaluate_point(tag: str, point: dict, cfg: SweepConfig) -> VerificationRecord:
    """One record. The closed form is judged against the tag's exact oracle
    (thm/cor: the finite sum; lem5/lem6: the derivative composition) or,
    for lem1-lem4, against quadrature, whose value is then also the
    record's oracle_value. A quadrature failure skips a tag without an
    oracle and is only noted for the others; a closed form or oracle past
    the double range skips the point."""
    spec = TAGS[tag]
    family = FAMILIES[spec.family]
    identity, op = spec.identity, OperatorSpec(spec.family, _op_params(tag, point))
    tau, x = float(point["tau"]), float(point["x"])
    poly = None if identity is None else PolySpec(
        int(point["n"]), float(point["p"]), float(point["q"])
    )
    closed = oracle = None
    try:
        if identity is not None:
            closed = image_rhs(
                identity, op.params, poly, tau, x, as_printed=cfg.as_printed
            ).value
            oracle = lhs_oracle(identity, op.params, poly, tau, x)
        else:
            closed = power_image(op, tau).value_at(x)
            if family.quadrature is None:  # lem5, lem6
                side = "right" if family.right else "left"
                oracle = deriv_composition_oracle(side, op.params, tau, x)
    except (DomainError, PoleError) as exc:
        return VerificationRecord(
            tag, point, None, None, None, 0.0, "SKIPPED(domain)", str(exc)
        )
    except OverflowError as exc:
        name = "closed_form_value" if closed is None else "oracle_value"
        return VerificationRecord(
            tag, point, None, closed, None, 0.0, "SKIPPED(overflow)",
            f"{name} overflows the double range ({exc}); not compared",
        )

    notes = []
    quad = embed = None
    qcfg = _quad_config(cfg)
    try:
        if identity is not None:
            quad = quadrature_value(identity, op.params, poly, tau, x, qcfg)
        elif oracle is None:  # lem1-lem4: quadrature is the reference
            power = family.monomial_power(tau)
            quad = operator_apply(op, _unit, x, qcfg, power=power)
            if spec.embedding is not None:
                embedded = spec.embedding(*op.params)
                try:
                    embed = operator_apply(embedded, _unit, x, qcfg, power=power)
                except UnsupportedKernelError as exc:
                    notes.append(f"five-parameter embedding check omitted: {exc}")
    except (UnsupportedKernelError, NonConvergedError) as exc:
        if oracle is None:
            reason = ("unsupported-kernel" if isinstance(exc, UnsupportedKernelError)
                      else "nonconverged")
            return VerificationRecord(
                tag, point, None, closed, None, 0.0, f"SKIPPED({reason})", str(exc)
            )
        # supplementary check only: the oracle verdict stands, but the
        # omission is recorded
        notes.append(f"quadrature comparison omitted: {exc}")
    quad_val = None if quad is None else quad.value
    reference = quad_val if oracle is None else oracle
    diff = rel_diff(closed, reference)
    underflow = _underflow_note(
        oracle_value=oracle, closed_form_value=closed, quadrature_value=quad_val,
        embedding_quadrature_value=None if embed is None else embed.value,
    )
    if underflow:
        return VerificationRecord(
            tag, point, reference, closed, quad_val, diff, "SKIPPED(underflow)",
            "; ".join(notes + [underflow]),
        )
    ok = diff <= (cfg.tol_quadrature if oracle is None else cfg.tol_oracle)
    if oracle is not None and quad_val is not None \
            and rel_diff(quad_val, closed) > cfg.tol_quadrature:
        ok = False
        notes.append("quadrature disagrees with the closed form")
    if embed is not None:
        # quadrature-vs-quadrature reduction: the operator must match its
        # five-parameter embedding
        embed_diff = rel_diff(embed.value, quad_val)
        if embed_diff > cfg.tol_reduction:
            ok = False
            notes.append(
                f"five-parameter embedding quadrature disagrees: rel diff {embed_diff:.3e}"
            )
    if not ok and cfg.as_printed and identity is not None:
        for c in corrections_for(identity):
            if c.evaluable:
                notes.append(
                    f"as-printed schema; adjudicated correction {c.key}: {c.implemented}"
                )
    return VerificationRecord(
        tag, point, reference, closed, quad_val, diff, "PASS" if ok else "FAIL",
        "; ".join(notes) or None,
    )


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


TOLERANCES = ("tol_oracle", "tol_quadrature", "tol_reduction")


def _parse_tags(text: str) -> list[str]:
    tags = [t.strip() for t in text.split(",") if t.strip()]
    bad = [t for t in tags if t not in TAGS]
    if bad:
        raise ConfigError(f"unknown identities: {', '.join(bad)}")
    return tags


def build_sweep_config(pairs: dict[str, str], args) -> SweepConfig:
    cfg = SweepConfig(identities=list(ALL_TAGS), grids={})
    for key, value in pairs.items():
        if key == "identities":
            cfg.identities = _parse_tags(value)
        elif key in TOLERANCES:
            setattr(cfg, key, float(_parse_scalar(value)))
        elif key == "as_printed":
            if value not in ("true", "false"):
                raise ConfigError(f"as_printed must be true or false, got {value!r}")
            cfg.as_printed = value == "true"
        elif key == "out":
            cfg.out = value
        elif "." in key:
            tag, symbol = key.split(".", 1)
            if tag not in TAGS:
                raise ConfigError(f"unknown identity in key {key!r}")
            if symbol not in _point_symbols(tag):
                raise ConfigError(f"unknown symbol in key {key!r}")
            cfg.grids.setdefault(tag, {})[symbol] = _parse_list(value)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    # a partial per-identity grid falls back to defaults symbol by symbol
    for tag, grid in cfg.grids.items():
        cfg.grids[tag] = {**DEFAULT_GRIDS[tag], **grid}
    if getattr(args, "identities", None):
        cfg.identities = _parse_tags(args.identities)
    if getattr(args, "as_printed", False):
        cfg.as_printed = True
    if getattr(args, "out", None):
        cfg.out = args.out
    # a tolerance of 0 is a valid request, so test for presence, not truth
    for key in TOLERANCES:
        if getattr(args, key, None) is not None:
            setattr(cfg, key, getattr(args, key))
    return cfg


# ---------------------------------------------------------------------------
# eval

def _need(args, target: str, *names: str) -> None:
    if any(getattr(args, name) is None for name in names):
        flags = ", ".join("--" + name.replace("_", "-") for name in names)
        raise ConfigError(f"eval {target} needs {flags}")


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


def _named(family: Family, params: tuple[float, ...]) -> dict[str, float]:
    return dict(zip(FAMILIES[family].symbols, params))


def _poly_from_args(args) -> PolySpec:
    if args.n is None or args.p is None or args.q is None:
        raise ConfigError("this target needs --n, --p, and --q")
    return PolySpec(int(args.n), float(args.p), float(args.q))


def _identity_from_args(args) -> IdentityId:
    if not args.identity:
        raise ConfigError("--identity is required for this target")
    try:
        return IdentityId(args.identity)
    except ValueError as exc:
        raise ConfigError(
            f"unknown identity {args.identity!r}; "
            f"choose from {', '.join(i.value for i in IdentityId)}"
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


# Each eval target returns its JSON fields in output order (after
# "target") and the fields it also prints as `name = value` lines.
EvalResult = tuple[dict, tuple[str, ...]]
F3_ARGS = ("a", "a_prime", "b", "b_prime", "c", "w", "z")


def _eval_pfq(args) -> EvalResult:
    _need(args, "pfq", "arg")
    num, den = _parse_exact_list(args.num), _parse_exact_list(args.den)
    arg = _parse_exact(args.arg)
    return {"num": [float(a) for a in num], "den": [float(b) for b in den],
            "arg": float(arg), "value": pfq(num, den, arg)}, ("value",)


def _eval_f3(args) -> EvalResult:
    _need(args, "f3", *F3_ARGS)
    values = {name: getattr(args, name) for name in F3_ARGS}
    return {**values, "value": appell_f3(*values.values())}, ("value",)


def _eval_mpoly(args) -> EvalResult:
    poly = _poly_from_args(args)
    _need(args, "mpoly", "x")
    value = m_poly(poly, args.x, method=args.method)
    return {"n": poly.n, "p": poly.p, "q": poly.q, "x": args.x,
            "method": args.method, "value": value}, ("value",)


def _eval_jacobi(args) -> EvalResult:
    _need(args, "jacobi", "n", "alpha", "beta", "x")
    spec = JacobiSpec(int(args.n), args.alpha, args.beta)
    return {"n": spec.n, "alpha": spec.alpha, "beta": spec.beta, "x": args.x,
            "value": jacobi_p(spec, args.x)}, ("value",)


def _eval_image(args) -> EvalResult:
    family = _family_from_args(args)
    params = _params_from_args(args, family)
    _need(args, "image", "tau")
    img = power_image(OperatorSpec(family, params), args.tau)
    out = {"family": family.value, "params": _named(family, params),
           "tau": args.tau,
           "numerator_args": list(img.prefactor.numerator_args),
           "denominator_args": list(img.prefactor.denominator_args),
           "prefactor": img.prefactor_value(), "exponent": img.exponent}
    if args.x is None:
        return out, ("prefactor", "exponent")
    out.update(x=args.x, value=img.value_at(args.x))
    return out, ("prefactor", "exponent", "value")


def _eval_apply(args) -> EvalResult:
    family = _family_from_args(args)
    params = _params_from_args(args, family)
    _need(args, "apply", "tau", "x")
    if args.n is None:
        power = FAMILIES[family].monomial_power(args.tau)
        quad = operator_apply(OperatorSpec(family, params), _unit, args.x, power=power)
    else:
        poly = _poly_from_args(args)
        identity = next(i for i, fam in IDENTITY_FAMILY.items() if fam is family)
        quad = quadrature_value(identity, params, poly, args.tau, args.x)
        if quad is None:
            raise UnsupportedKernelError(
                f"{family.value} has no supported quadrature here"
            )
    out = {"family": family.value, "params": _named(family, params),
           "tau": args.tau, "x": args.x, "value": quad.value,
           "error": quad.error, "nodes": quad.nodes}
    if args.n is not None:
        out.update(n=poly.n, p=poly.p, q=poly.q)
    return out, ("value", "error", "nodes")


def _identity_point(args, target: str) -> tuple[tuple, dict]:
    """rhs and oracle: the identity's arguments and their JSON fields."""
    identity = _identity_from_args(args)
    family = IDENTITY_FAMILY[identity]
    params = _params_from_args(args, family)
    poly = _poly_from_args(args)
    _need(args, target, "tau", "x")
    out = {"identity": identity.value, "params": _named(family, params),
           "n": poly.n, "p": poly.p, "q": poly.q, "tau": args.tau, "x": args.x}
    return (identity, params, poly, args.tau, args.x), out


def _eval_rhs(args) -> EvalResult:
    point, out = _identity_point(args, "rhs")
    ev = image_rhs(*point, as_printed=args.as_printed)
    out.update(
        as_printed=args.as_printed,
        numerator_args=list(ev.prefactor.numerator_args),
        denominator_args=list(ev.prefactor.denominator_args),
        sign=ev.prefactor.sign,
        prefactor=gamma_product_eval(ev.prefactor).to_float(),
        series=ev.series_value, argument=ev.argument, exponent=ev.exponent,
        value=ev.value,
    )
    return out, ("value", "prefactor", "series", "exponent")


def _eval_oracle(args) -> EvalResult:
    point, out = _identity_point(args, "oracle")
    out["value"] = lhs_oracle(*point)
    return out, ("value",)


EVAL_TARGETS = {
    "pfq": _eval_pfq, "f3": _eval_f3, "mpoly": _eval_mpoly,
    "jacobi": _eval_jacobi, "image": _eval_image, "apply": _eval_apply,
    "rhs": _eval_rhs, "oracle": _eval_oracle,
}


def cmd_eval(args) -> int:
    out, shown = EVAL_TARGETS[args.target](args)
    for key in shown:
        print(f"{key} = {_show(out[key])}")
    sys.stdout.write(_json_line({"target": args.target, **out}))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify / sweep / report

def cmd_verify(args) -> int:
    pairs = load_config_file(args.config) if args.config else {}
    cfg = build_sweep_config(pairs, args)
    pending = iter_verification(cfg)
    verdicts = Counter()
    with open(cfg.out, "w", encoding="utf-8", newline="\n") as handle:
        for rec in pending:
            handle.write(_json_line(vars(rec)))
            verdicts[rec.verdict] += 1
    n_pass, n_fail = verdicts["PASS"], verdicts["FAIL"]
    print(
        f"verify: {verdicts.total()} records, {n_pass} PASS, {n_fail} FAIL, "
        f"{verdicts.total() - n_pass - n_fail} SKIPPED -> {cfg.out}"
    )
    return EXIT_FAIL if n_fail else EXIT_PASS


def cmd_sweep(args) -> int:
    pairs = load_config_file(args.config) if args.config else {}
    cfg = build_sweep_config(pairs, args)
    if args.identity:
        if args.identity not in TAGS:
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
            values = (rec.oracle_value, rec.closed_form_value, rec.quadrature_value)
            writer.writerow(
                [rec.identity]
                + [_num(rec.point[s]) if s in rec.point else "" for s in symbols]
                + ["" if v is None else _num(v) for v in values]
                + [_num(rec.rel_diff), rec.verdict]
            )
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

def _float_flags(sub: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        sub.add_argument("--" + name.replace("_", "-"), type=float)


def _add_eval_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("target", choices=list(EVAL_TARGETS))
    sub.add_argument("--num", help="comma-separated numerator parameters")
    sub.add_argument("--den", help="comma-separated denominator parameters")
    sub.add_argument("--arg", help="series argument")
    _float_flags(sub, *F3_ARGS)
    sub.add_argument("--n", type=int, help="polynomial degree")
    _float_flags(sub, "p", "q", "alpha", "beta", "x")
    sub.add_argument("--method", default="direct",
                     choices=["direct", "hypergeometric"])
    sub.add_argument("--family", choices=[f.value for f in Family])
    sub.add_argument("--identity", help="thm1..thm4, cor1..cor6")
    sub.add_argument("--tau", type=float, help="monomial order")
    _float_flags(sub, "delta", "delta_prime", "mu", "mu_prime", "epsilon")
    sub.add_argument("--as-printed", action="store_true",
                     help="evaluate the as-printed identity variant")


def _add_sweep_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--out", help="output path")
    sub.add_argument("--identities", help="comma-separated identity tags")
    sub.add_argument("--as-printed", action="store_true",
                     help="verify the as-printed variants instead")
    _float_flags(sub, *TOLERANCES)


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
    commands = {"eval": cmd_eval, "verify": cmd_verify, "sweep": cmd_sweep,
                "report": cmd_report}
    try:
        return commands[args.command](args)
    except (DomainError, PoleError, ConfigError, UnsupportedKernelError,
            ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (NonConvergedError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
