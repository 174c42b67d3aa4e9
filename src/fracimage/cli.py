"""Command line for the verification engine in identities.

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
import json
import math
import os
import re
import sys
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
    TAGS,
    IdentityId,
    SweepConfig,
    VerificationRecord,
    _point_symbols,
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
    if not tags:
        raise ConfigError(f"no identities selected: {text!r}")
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
        # no comparison with NaN is true, and none below 0 can pass
        if not getattr(cfg, key) >= 0.0:
            raise ConfigError(f"{key} must be >= 0, got {getattr(cfg, key)!r}")
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
    poly = None if args.n is None else _poly_from_args(args)
    quad = monomial_quadrature(OperatorSpec(family, params), poly, args.tau, args.x)
    out = {"family": family.value, "params": _named(family, params),
           "tau": args.tau, "x": args.x, "value": quad.value,
           "error": quad.error, "nodes": quad.nodes}
    if poly is not None:
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
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"{flag} must be finite, got {value!r}")
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
    to_file = args.out or "out" in pairs
    out = open(cfg.out, "w", encoding="utf-8", newline="") if to_file else sys.stdout
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
    if to_file:
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
    commands = {"eval": cmd_eval, "verify": cmd_verify, "sweep": cmd_sweep,
                "report": cmd_report}
    try:
        return commands[args.command](args)
    except BrokenPipeError:
        # the reader left (`fracimage sweep | head`): point stdout at devnull
        # so the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except (DomainError, PoleError, ConfigError, UnsupportedKernelError,
            ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (NonConvergedError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
