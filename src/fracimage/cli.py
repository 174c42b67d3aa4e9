"""Command line for the verification engine in identities.

Verbs:
  eval    evaluate one function, image, operator application, closed
          form, or oracle at a point; each target is a sub-command that
          takes only its own flags (EVAL_TARGETS, `eval <target> --help`)
  verify  run identity checks over parameter grids and write one JSON
          line per (identity, point)
  report  summarize a verification record file and print the
          corrections ledger

Operator parameters are addressed on the command line as delta,
delta-prime, mu, mu-prime, epsilon for the five-parameter operators;
delta, mu, epsilon for the three-parameter family; delta alone for the
one-parameter family; epsilon (weight exponent) and delta (order) for
the two-parameter family. The Python API uses alpha, alpha_prime, beta,
beta_prime, gamma / alpha, beta, eta / alpha / eta, alpha for the same
positions (operators.FAMILIES); flag values map positionally. verify
writes each record to --out as soon as it is computed, in grid order,
and leaves every check of the run's configuration to
identities.iter_verification. Records and eval lines are standard JSON
(json.dumps, floats as their shortest round-trip repr).

Exit codes: 0 all pass, 1 any verification failure, 2 domain or config
error (argparse prints its usage line first), 3 convergence error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import typing
from collections import Counter
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
# also re-exports the six engine names perfbench imports from fracimage.cli
from .identities import (  # noqa: F401
    ALL_TAGS,
    CORRECTIONS,
    DEFAULT_GRIDS,
    IDENTITY_FAMILY,
    TOLERANCES,
    IdentityId,
    SweepConfig,
    VerificationRecord,
    image_rhs,
    iter_verification,
    lhs_oracle,
    monomial_quadrature,
    rel_diff,
    run_verification,
)
from .jacobi import JacobiSpec, PolySpec, jacobi_p, m_poly
from .operators import FAMILIES, Family, OperatorSpec, power_image

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3


def _show(v) -> str:
    """Human-facing number: shortest exact form, integers without .0"""
    f = float(v)
    if f.is_integer() and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


def _json_line(obj: dict) -> str:
    """One compact JSON object in key order; a NaN or infinity raises ValueError."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n"


def _open_out(path: str):
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


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


def _split(text: str) -> list[str]:
    return [t for t in (piece.strip() for piece in text.split(",")) if t]


def _parse_list(text: str) -> list:
    items = _split(text)
    if not items:
        raise ConfigError(f"empty value list: {text!r}")
    return [_parse_scalar(t) for t in items]


def load_config_file(path: str) -> dict[str, str]:
    """Flat key-value lines: `key = value`, # starts a comment, each key once."""
    pairs: dict[str, str] = {}
    first_line: dict[str, int] = {}
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
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: {key} is already set on line {first_line[key]}")
        first_line[key] = lineno
        pairs[key] = value
    return pairs


def build_sweep_config(pairs: dict[str, str], args) -> SweepConfig:
    cfg = SweepConfig(identities=list(ALL_TAGS), grids={})
    for key, value in pairs.items():
        if key == "identities":
            cfg.identities = _split(value)
        elif key in TOLERANCES:
            setattr(cfg, key, _parse_scalar(value))
        elif key == "as_printed":
            if value not in ("true", "false"):
                raise ConfigError(f"as_printed must be true or false, got {value!r}")
            cfg.as_printed = value == "true"
        elif key == "out":
            cfg.out = value
        elif "." in key:
            tag, symbol = key.split(".", 1)
            cfg.grids.setdefault(tag, {})[symbol] = _parse_list(value)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    # an empty value or a tolerance of 0 is a request as given: test presence, not truth
    if args.identities is not None:
        cfg.identities = _split(args.identities)
    if args.as_printed:
        cfg.as_printed = True
    if args.out is not None:
        cfg.out = args.out
    for key in TOLERANCES:
        if getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
    return cfg


# ---------------------------------------------------------------------------
# eval

def _params_from_args(args, family: Family) -> tuple[float, ...]:
    """The family's parameter flags in order; ConfigError names a missing
    one, or one of another family's that was given."""
    symbols = FAMILIES[family].symbols
    for symbol in symbols:
        if getattr(args, symbol) is None:
            raise ConfigError(f"{family.value} needs --{symbol.replace('_', '-')}")
    for symbol in OPERATOR:
        if symbol not in symbols and getattr(args, symbol) is not None:
            raise ConfigError(f"{family.value} takes no --{symbol.replace('_', '-')}")
    return tuple(float(getattr(args, symbol)) for symbol in symbols)


def _named(family: Family, params: tuple[float, ...]) -> dict[str, float]:
    return dict(zip(FAMILIES[family].symbols, params))


def _parse_exact(text: str) -> Fraction:
    # decimal literals become exact rationals so terminating series print
    # without float-parse residue (0.4 stays 2/5, not the nearest double)
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a number: {text.strip()!r}") from exc


def _parse_exact_list(text: str) -> tuple[Fraction, ...]:
    return tuple(map(_parse_exact, _split(text)))


# Each eval target returns its JSON fields in output order (after
# "target") and the fields it also prints as `name = value` lines.
EvalResult = tuple[dict, tuple[str, ...]]
F3_ARGS = ("a", "a_prime", "b", "b_prime", "c", "w", "z")


def _eval_pfq(args) -> EvalResult:
    """terminating or convergent pFq(num; den; arg)"""
    num, den = _parse_exact_list(args.num), _parse_exact_list(args.den)
    arg = _parse_exact(args.arg)
    return {"num": [float(a) for a in num], "den": [float(b) for b in den],
            "arg": float(arg), "value": pfq(num, den, arg)}, ("value",)


def _eval_f3(args) -> EvalResult:
    """Appell F3(a, a', b, b'; c; w, z)"""
    values = {name: getattr(args, name) for name in F3_ARGS}
    return {**values, "value": appell_f3(*values.values())}, ("value",)


def _eval_mpoly(args) -> EvalResult:
    """the polynomial M_n^(p,q)(x)"""
    value = m_poly(PolySpec(args.n, args.p, args.q), args.x, method=args.method)
    return {"n": args.n, "p": args.p, "q": args.q, "x": args.x,
            "method": args.method, "value": value}, ("value",)


def _eval_jacobi(args) -> EvalResult:
    """the Jacobi polynomial P_n^(alpha,beta)(x)"""
    spec = JacobiSpec(args.n, args.alpha, args.beta)
    return {"n": spec.n, "alpha": spec.alpha, "beta": spec.beta, "x": args.x,
            "value": jacobi_p(spec, args.x)}, ("value",)


def _eval_image(args) -> EvalResult:
    """a family's power image: gamma prefactor and exponent, and its value at --x"""
    family = Family(args.family)
    params = _params_from_args(args, family)
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
    """quadrature of an operator on its monomial, times M_n with --n --p --q"""
    family = Family(args.family)
    params = _params_from_args(args, family)
    given = [v is not None for v in (args.n, args.p, args.q)]
    if any(given) and not all(given):
        raise ConfigError("eval apply takes --n, --p and --q together")
    poly = PolySpec(args.n, args.p, args.q) if all(given) else None
    quad = monomial_quadrature(OperatorSpec(family, params), poly, args.tau, args.x)
    out = {"family": family.value, "params": _named(family, params),
           "tau": args.tau, "x": args.x, "value": quad.value,
           "error": quad.error, "nodes": quad.nodes}
    if poly is not None:
        out.update(n=poly.n, p=poly.p, q=poly.q)
    return out, ("value", "error", "nodes")


def _identity_point(args) -> tuple[tuple, dict]:
    """rhs and oracle: the identity's arguments and their JSON fields."""
    identity = IdentityId(args.identity)
    family = IDENTITY_FAMILY[identity]
    params = _params_from_args(args, family)
    poly = PolySpec(args.n, args.p, args.q)
    out = {"identity": identity.value, "params": _named(family, params),
           "n": poly.n, "p": poly.p, "q": poly.q, "tau": args.tau, "x": args.x}
    return (identity, params, poly, args.tau, args.x), out


def _eval_rhs(args) -> EvalResult:
    """an identity's closed form"""
    point, out = _identity_point(args)
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
    """an identity's exact finite-sum oracle"""
    point, out = _identity_point(args)
    out["value"] = lhs_oracle(*point)
    return out, ("value",)


# Flags as argparse keyword arguments, keyed by their dest names.
REQUIRED = {"type": float, "required": True}
OPTIONAL = {"type": float}
POLY = {"n": {"type": int, "required": True, "help": "polynomial degree"},
        "p": REQUIRED, "q": REQUIRED}
POINT = {"tau": {**REQUIRED, "help": "monomial order"}, "x": REQUIRED}
# every family's parameter flags; _params_from_args checks them against the family's
OPERATOR = {s: OPTIONAL for spec in FAMILIES.values() for s in spec.symbols}
FAMILY = {"family": {"required": True, "choices": [f.value for f in Family]},
          **OPERATOR}
IDENTITY = {"identity": {"required": True, "choices": [i.value for i in IdentityId]},
            **OPERATOR, **POLY, **POINT}

# Each eval target: its function and its flags.
EVAL_TARGETS = {
    "pfq": (_eval_pfq, {
        "num": {"default": "", "help": "comma-separated numerator parameters"},
        "den": {"default": "", "help": "comma-separated denominator parameters"},
        "arg": {"required": True, "help": "series argument"}}),
    "f3": (_eval_f3, dict.fromkeys(F3_ARGS, REQUIRED)),
    "mpoly": (_eval_mpoly, {**POLY, "x": REQUIRED, "method": {
        "default": "direct", "choices": ["direct", "hypergeometric"]}}),
    "jacobi": (_eval_jacobi, {"n": POLY["n"], "alpha": REQUIRED, "beta": REQUIRED,
                              "x": REQUIRED}),
    "image": (_eval_image, {**FAMILY, "tau": POINT["tau"], "x": OPTIONAL}),
    "apply": (_eval_apply, {**FAMILY, **POINT, "n": {"type": int}, "p": OPTIONAL,
                            "q": OPTIONAL}),
    "rhs": (_eval_rhs, {**IDENTITY, "as_printed": {
        "action": "store_true", "help": "evaluate the as-printed identity variant"}}),
    "oracle": (_eval_oracle, IDENTITY),
}


def cmd_eval(args) -> int:
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"{flag} must be finite, got {value!r}")
    out, shown = EVAL_TARGETS[args.target][0](args)
    line = _json_line({"target": args.target, **out})
    for key in shown:
        print(f"{key} = {_show(out[key])}")
    sys.stdout.write(line)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify / report

def cmd_verify(args) -> int:
    pairs = {} if args.config is None else load_config_file(args.config)
    cfg = build_sweep_config(pairs, args)
    pending = iter_verification(cfg)
    verdicts = Counter()
    with _open_out(cfg.out) as handle:
        for rec in pending:
            handle.write(_json_line(vars(rec)))
            verdicts[rec.verdict] += 1
    n_pass, n_fail = verdicts["PASS"], verdicts["FAIL"]
    print(
        f"verify: {verdicts.total()} records, {n_pass} PASS, {n_fail} FAIL, "
        f"{verdicts.total() - n_pass - n_fail} SKIPPED -> {cfg.out}"
    )
    return EXIT_FAIL if n_fail else EXIT_PASS


JSON_TYPES = {str: "a string", dict: "an object", int: "a number", float: "a number",
              type(None): "null"}
# the JSON types of each record field, as verify writes them ("a number or null")
RECORD_TYPES = {name: " or ".join(JSON_TYPES[kind] for kind in typing.get_args(hint) or (hint,))
                for name, hint in typing.get_type_hints(VerificationRecord).items()}


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not standard JSON")


def _checked_record(fields) -> VerificationRecord:
    """The record with these fields; TypeError if one is missing, unknown or
    of a type verify does not write, ValueError for an unknown verdict."""
    rec = VerificationRecord(**fields)
    for name, kinds in RECORD_TYPES.items():
        value = getattr(rec, name)
        if JSON_TYPES.get(type(value)) not in kinds.split(" or "):
            raise TypeError(f"{name} must be {kinds}, got {value!r}")
    if not re.fullmatch(r"PASS|FAIL|SKIPPED\(.+\)", rec.verdict):
        raise ValueError(f"unknown verdict {rec.verdict!r}")
    return rec


def cmd_report(args) -> int:
    try:
        with open(args.records, encoding="utf-8") as handle:
            lines = list(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read records {args.records}: {exc}") from exc
    records = []
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            try:
                records.append(_checked_record(
                    json.loads(line, parse_constant=_refuse_constant)))
            except (ValueError, TypeError) as exc:  # not JSON, or not a record
                raise ConfigError(f"{args.records}:{lineno}: {exc}") from exc
    verdicts: dict[str, Counter] = {}
    worst: dict[str, float] = {}
    for rec in records:
        kind = "SKIPPED" if rec.verdict.startswith("SKIPPED") else rec.verdict
        verdicts.setdefault(rec.identity, Counter())[kind] += 1
        worst[rec.identity] = max(worst.get(rec.identity, 0.0), rec.rel_diff)
    print(f"{'identity':<10} {'pass':>6} {'fail':>6} {'skipped':>8} "
          f"{'max rel diff':>14}")
    for tag, counts in sorted(verdicts.items()):
        print(f"{tag:<10} {counts['PASS']:>6} {counts['FAIL']:>6} "
              f"{counts['SKIPPED']:>8} {worst[tag]:>14.3e}")
    total = sum(verdicts.values(), Counter())
    n_fail = total["FAIL"]
    print(f"total: {len(records)} records, {total['PASS']} pass, {n_fail} fail, "
          f"{total['SKIPPED']} skipped")
    if n_fail:
        print("\nfailures:")
        for rec in records:
            if rec.verdict != "FAIL":
                continue
            point = ", ".join(f"{k}={v}" for k, v in rec.point.items())
            print(f"  {rec.identity} [{point}]")
            print(f"    oracle {rec.oracle_value}  closed {rec.closed_form_value}  "
                  f"rel diff {rec.rel_diff}")
            if rec.ledger_note:
                print(f"    note: {rec.ledger_note}")
    print("\ncorrections ledger (printed statement vs implemented form):")
    for c in CORRECTIONS:
        print(f"  [{c.key}] {c.identity}")
        print(f"    printed:     {c.printed}")
        print(f"    implemented: {c.implemented}")
    return EXIT_FAIL if n_fail else EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing

def _add_flags(sub: argparse.ArgumentParser, flags: dict[str, dict]) -> None:
    for dest, kwargs in flags.items():
        sub.add_argument("--" + dest.replace("_", "-"), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracimage",
        description="Evaluate and verify fractional-operator power images",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    targets = subs.add_parser(
        "eval", help="evaluate one target at a point"
    ).add_subparsers(dest="target", required=True)
    for name, (evaluate, flags) in EVAL_TARGETS.items():
        # no prefix matching: --a is f3's flag, not an abbreviation of --arg
        target = targets.add_parser(name, help=evaluate.__doc__, allow_abbrev=False)
        _add_flags(target, flags)
    verify = subs.add_parser("verify", help="run identity checks over grids")
    verify.add_argument("--config", help="flat key = value config file")
    verify.add_argument("--out", help="records path")
    verify.add_argument("--identities", help="comma-separated identity tags")
    verify.add_argument("--as-printed", action="store_true",
                        help="verify the as-printed variants instead")
    _add_flags(verify, dict.fromkeys(TOLERANCES, {"type": float}))
    report = subs.add_parser("report", help="summarize a records file")
    report.add_argument("records", help="JSON-lines records path")
    return parser


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join `--x -1e-3` into `--x=-1e-3`: a token that starts with - and then
    a digit, . or inf/nan in any case (-inf, -Infinity, -nan) is the value of
    the option before it. argparse sees that only for plain negative
    numbers, not -1e-3, -inf or a list such as -1,3."""
    merged: list[str] = []
    for token in argv:
        if merged and re.fullmatch(r"--[\w-]+", merged[-1]) \
                and re.match(r"-([\d.]|inf|nan)", token, re.IGNORECASE):
            merged[-1] += "=" + token
        else:
            merged.append(token)
    return merged


def main(argv: list[str] | None = None) -> int:
    argv = _merge_negative_values(sys.argv[1:] if argv is None else list(argv))
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"eval": cmd_eval, "verify": cmd_verify, "report": cmd_report}
    try:
        return commands[args.command](args)
    except BrokenPipeError:
        # the reader left (`fracimage report FILE | head`): point stdout at devnull
        # so the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except (DomainError, PoleError, ConfigError, UnsupportedKernelError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OverflowError as exc:
        print(f"error: a value overflows the double range ({exc})", file=sys.stderr)
        return EXIT_DOMAIN
    except (NonConvergedError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
