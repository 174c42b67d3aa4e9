"""Command line interface: eval targets, verification runs, reports."""

import ast
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from fracimage import cli, identities, quadrature
from fracimage.cli import build_parser, build_sweep_config, load_config_file, main
from fracimage.errors import NonConvergedError
from fracimage.identities import (
    DEFAULT_GRIDS,
    IdentityId,
    SweepConfig,
    lhs_oracle,
    rel_diff,
    run_verification,
)
from fracimage.jacobi import PolySpec


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def strict_json(text: str):
    """json.loads that refuses the NaN and Infinity tokens standard JSON lacks."""
    def refuse(token):
        raise ValueError(f"not standard JSON: {token}")
    return json.loads(text, parse_constant=refuse)


def json_tail(out: str) -> dict:
    return strict_json(out.strip().splitlines()[-1])


def test_eval_mpoly(capsys):
    rc, out, _ = run(capsys, "eval", "mpoly", "--n", "1", "--p", "5",
                     "--q", "0", "--x", "1")
    assert rc == 0
    assert out.splitlines()[0] == "value = 2"
    assert json_tail(out)["value"] == 2


def test_eval_image_identity_weight(capsys):
    rc, out, _ = run(capsys, "eval", "image", "--family", "rl-left",
                     "--delta", "1", "--tau", "1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "prefactor = 1"
    assert lines[1] == "exponent = 1"
    obj = json_tail(out)
    assert obj["numerator_args"] == [1]
    assert obj["denominator_args"] == [2]


def test_eval_pfq_terminating(capsys):
    # leading dash inside the comma list must survive argparse
    rc, out, _ = run(capsys, "eval", "pfq", "--num", "-1,3", "--den", "2",
                     "--arg", "0.4")
    assert rc == 0
    assert out.splitlines()[0] == "value = 0.4"
    assert json_tail(out)["value"] == pytest.approx(0.4, rel=1e-15)


def test_eval_pfq_bad_number(capsys):
    rc, _, err = run(capsys, "eval", "pfq", "--num", "-1,oops", "--den", "2",
                     "--arg", "0.4")
    assert rc == 2
    assert "error:" in err


def test_eval_apply_matches_rhs(capsys):
    common = ["--delta", "0.5", "--n", "1", "--p", "9", "--q", "0",
              "--tau", "2", "--x", "1.5"]
    rc, out, _ = run(capsys, "eval", "apply", "--family", "rl-left", *common)
    assert rc == 0
    applied = json_tail(out)["value"]
    rc, out, _ = run(capsys, "eval", "rhs", "--identity", "cor2", *common)
    assert rc == 0
    closed = json_tail(out)["value"]
    assert rel_diff(applied, closed) < 1e-8


def test_eval_apply_logarithmic_kernel_output_is_pinned(capsys):
    # mu = epsilon: the Saigo kernel has a logarithm, and the value is
    # interpolated from the splits beside it, each on its 16-node rules;
    # it is 8.3e-15 off the closed form 0.2370444746830956
    rc, out, _ = run(capsys, "eval", "apply", "--family", "saigo-left",
                     "--delta", "0.6", "--mu", "0.4", "--epsilon", "0.4",
                     "--tau", "2.5", "--x", "0.5")
    assert rc == 0
    assert out.splitlines()[:3] == [
        "value = 0.23704447468309756",
        "error = 5.396263068904359e-13",
        "nodes = 16",
    ]
    result = json_tail(out)
    assert (result["value"], result["error"], result["nodes"]) == (
        0.23704447468309756, 5.396263068904359e-13, 16)


def test_eval_oracle_target(capsys):
    rc, out, _ = run(capsys, "eval", "oracle", "--identity", "cor1",
                     "--delta", "0.6", "--mu", "0.2", "--epsilon", "0.4",
                     "--n", "2", "--p", "9", "--q", "0",
                     "--tau", "2", "--x", "1.5")
    assert rc == 0
    expected = lhs_oracle(
        IdentityId.COR1, (0.6, 0.2, 0.4), PolySpec(2, 9.0, 0.0), 2.0, 1.5
    )
    assert json_tail(out)["value"] == expected


def test_eval_rhs_as_printed_differs(capsys):
    point = ["--delta", "0.5", "--delta-prime", "0.3", "--mu", "0.2",
             "--mu-prime", "0.4", "--epsilon", "1.1", "--n", "1",
             "--p", "9", "--q", "0", "--tau", "2", "--x", "1"]
    _, out, _ = run(capsys, "eval", "rhs", "--identity", "thm1", *point)
    corrected = json_tail(out)["value"]
    _, out, _ = run(capsys, "eval", "rhs", "--identity", "thm1",
                    "--as-printed", *point)
    printed = json_tail(out)["value"]
    assert rel_diff(corrected, printed) > 1e-3


def test_eval_missing_flag(capsys):
    rc, _, err = run(capsys, "eval", "rhs", "--identity", "cor2",
                     "--n", "1", "--p", "9", "--q", "0",
                     "--tau", "2", "--x", "1")
    assert rc == 2
    assert "--delta" in err


def test_eval_domain_violation(capsys):
    rc, _, err = run(capsys, "eval", "image", "--family", "rl-left",
                     "--delta", "-0.5", "--tau", "1")
    assert rc == 2
    assert "alpha > 0" in err


@pytest.mark.parametrize("argv", [
    ("rhs", "--identity", "cor2", "--delta", "0.5", "--n", "1000", "--p", "2001.5",
     "--q", "1.5", "--tau", "2", "--x", "1"),
    ("oracle", "--identity", "cor2", "--delta", "0.5", "--n", "1000", "--p", "2001.5",
     "--q", "1.5", "--tau", "2", "--x", "1"),
    ("image", "--family", "rl-left", "--delta", "0.5", "--tau", "400", "--x", "1e300"),
    # each factor is finite, the product is not: these printed value = inf
    # and exit 0
    ("rhs", "--identity", "cor2", "--delta", "0.5", "--n", "1", "--p", "9",
     "--q", "1.5", "--tau", "2", "--x", "1e150"),
    ("oracle", "--identity", "cor2", "--delta", "0.5", "--n", "1", "--p", "9",
     "--q", "1.5", "--tau", "2", "--x", "1e150"),
    ("apply", "--family", "rl-left", "--delta", "2", "--tau", "0.5", "--x", "2.8e205"),
    # the recurrence returned inf, which only the JSON writer refused
    ("jacobi", "--n", "3", "--alpha", "0", "--beta", "0", "--x", "1e300"),
    # M_3 overflows at the nodes: this once refined to 4,096 nodes and
    # exited 3, "did not stabilize"
    ("apply", "--family", "rl-left", "--delta", "0.5", "--tau", "2", "--n", "3",
     "--p", "9", "--q", "0", "--x", "1e120"),
    # e^710: the series ran to its term budget and exited 3, "did not converge"
    ("pfq", "--num", "1", "--den", "1", "--arg", "710"),
])
def test_eval_overflow_is_a_domain_exit(capsys, argv):
    # exit code 1 means a verification failure, so a value past the double
    # range is reported like any other point outside the computable domain
    rc, out, err = run(capsys, "eval", *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "overflows the double range" in err
    assert "Traceback" not in err


# one valid invocation of each eval target
EVAL_ARGV = {
    "pfq": ["--num", "-1,3", "--den", "2", "--arg", "0.4"],
    "f3": ["--a", "0.5", "--a-prime", "0.5", "--b", "0.5", "--b-prime", "0.5",
           "--c", "1.5", "--w", "0.3", "--z", "0.2"],
    "mpoly": ["--n", "2", "--p", "9", "--q", "0", "--x", "0.6"],
    "jacobi": ["--n", "2", "--alpha", "0.5", "--beta", "1.5", "--x", "0.3"],
    "image": ["--family", "rl-left", "--delta", "0.6", "--tau", "2", "--x", "0.7"],
    "apply": ["--family", "rl-left", "--delta", "0.6", "--tau", "2", "--x", "0.7"],
    "rhs": ["--identity", "cor2", "--delta", "0.6", "--n", "2", "--p", "9", "--q", "0",
            "--tau", "2", "--x", "0.7"],
    "oracle": ["--identity", "cor2", "--delta", "0.6", "--n", "2", "--p", "9",
               "--q", "0", "--tau", "2", "--x", "0.7"],
}


@pytest.mark.parametrize("target", list(cli.EVAL_TARGETS))
def test_eval_target_takes_only_its_own_flags(capsys, target):
    # one flat parser took every flag for every target, and ignored what the
    # target did not read (`eval f3 ... --x 3`, `eval oracle ... --as-printed`)
    rc, out, _ = run(capsys, "eval", target, *EVAL_ARGV[target])
    assert rc == 0
    assert json_tail(out)["target"] == target
    flags = cli.EVAL_TARGETS[target][1]
    foreign = {dest for _, other in cli.EVAL_TARGETS.values() for dest in other} - set(flags)
    assert foreign
    for dest in sorted(foreign):
        flag = "--" + dest.replace("_", "-")
        with pytest.raises(SystemExit) as exit_:
            main(["eval", target, *EVAL_ARGV[target], flag, "1"])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    # argparse names every required flag that is missing
    required = [dest for dest, kwargs in flags.items() if kwargs.get("required")]
    assert required
    with pytest.raises(SystemExit) as exit_:
        main(["eval", target])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: fracimage eval {target} ")
    assert all("--" + dest.replace("_", "-") in err.splitlines()[-1] for dest in required)


@pytest.mark.parametrize("target", ["image", "apply", "rhs", "oracle"])
def test_eval_rejects_another_familys_parameter_flag(capsys, target):
    # every operator target takes every family's flags; rl-left has only
    # --delta, and --mu was dropped without a word (exit 0)
    rc, out, err = run(capsys, "eval", target, *EVAL_ARGV[target], "--mu", "3")
    assert rc == 2
    assert out == ""
    assert err == "error: rl-left takes no --mu\n"


@pytest.mark.parametrize("flags", [["--n", "1"], ["--p", "9", "--q", "0"]])
def test_eval_apply_takes_the_polynomial_flags_together(capsys, flags):
    rc, out, err = run(capsys, "eval", "apply", *EVAL_ARGV["apply"], *flags)
    assert (rc, out) == (2, "")
    assert err == "error: eval apply takes --n, --p and --q together\n"


def test_eval_apply_unsupported_kernel(capsys):
    rc, _, err = run(capsys, "eval", "apply", "--family", "msm-right-int",
                     "--delta", "0.5", "--delta-prime", "0.3", "--mu", "0.2",
                     "--mu-prime", "0.4", "--epsilon", "1.1",
                     "--tau", "2", "--x", "1")
    assert rc == 2
    assert "alpha = 0 or beta = 0" in err


def test_eval_apply_polynomial_names_the_kernel_regime(capsys):
    # with --n the error said only "msm-left-int has no supported quadrature
    # here"; without it, the kernel regime that has none
    rc, _, err = run(capsys, "eval", "apply", "--family", "msm-left-int",
                     "--delta", "0.5", "--delta-prime", "0.3", "--mu", "0.2",
                     "--mu-prime", "0.4", "--epsilon", "1.1", "--tau", "2",
                     "--x", "1", "--n", "1", "--p", "9", "--q", "0")
    assert rc == 2
    assert "two-series kernel regime" in err


def test_eval_apply_nonconverged_exit(capsys, monkeypatch):
    # the Saigo kernel with eta = mu has a logarithmic endpoint: its series
    # does not converge at the nodes next to u = 0
    rc, _, err = run(capsys, "eval", "apply", "--family", "saigo-left",
                     "--delta", "0.5", "--mu", "0.3", "--epsilon", "0.3",
                     "--tau", "0.2", "--x", "1")
    assert rc == 3
    assert "did not converge" in err
    # a rule whose weights drift with its size, and whose coefficient rows
    # no longer annihilate a constant, never stabilizes
    rule = quadrature._gj_rule

    def drifting_rule(n, *args):
        nodes, weights, scale, null = rule(n, *args)
        return (nodes, [w * (1.0 + 1e-8 * n) for w in weights], scale,
                [[r + 1e-8 * w for r, w in zip(row, weights)] for row in null])

    monkeypatch.setattr(quadrature, "_gj_rule", drifting_rule)
    rc, _, err = run(capsys, "eval", "apply", "--family", "rl-right",
                     "--delta", "0.5", "--tau", "0.4375", "--n", "1",
                     "--p", "9", "--q", "0", "--x", "1")
    assert rc == 3
    assert "did not stabilize" in err


SMALL_CFG = """
# restricted grid for fast runs
identities = cor2
cor2.delta = 0.5, 1.25
cor2.n = 0, 1
cor2.p = 9
cor2.q = 0
cor2.tau = 2
cor2.x = 1, 2
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_verify_small_grid(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_CFG)
    out_path = tmp_path / "records.jsonl"
    rc, out, _ = run(capsys, "verify", "--config", cfg,
                     "--out", str(out_path))
    assert rc == 0
    assert "8 records, 8 PASS, 0 FAIL, 0 SKIPPED" in out
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 8
    first = json.loads(lines[0])
    assert first["identity"] == "cor2"
    assert first["verdict"] == "PASS"
    assert set(first["point"]) == {"delta", "n", "p", "q", "tau", "x"}
    assert first["rel_diff"] <= 1e-10
    # fixed key order in every line
    keys = list(first)
    assert keys == ["identity", "point", "oracle_value", "closed_form_value",
                    "quadrature_value", "rel_diff", "verdict", "ledger_note"]


def test_verify_deterministic_bytes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_CFG)
    paths = [tmp_path / f"r{i}.jsonl" for i in range(2)]
    run(capsys, "verify", "--config", cfg, "--out", str(paths[0]))
    run(capsys, "verify", "--config", cfg, "--out", str(paths[1]))
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1]
    assert b"\r" not in blobs[0]


def test_verify_as_printed_fails(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
identities = cor4
cor4.delta = 0.6
cor4.mu = 0.2
cor4.epsilon = 0.4
cor4.n = 1
cor4.p = 9
cor4.q = 0
cor4.tau = 0.5
cor4.x = 1, 2
""")
    out_path = tmp_path / "printed.jsonl"
    rc, out, _ = run(capsys, "verify", "--config", cfg, "--as-printed",
                     "--out", str(out_path))
    assert rc == 1
    assert "2 FAIL" in out
    for line in out_path.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        assert rec["verdict"] == "FAIL"
        assert "cor4-alternating-sign" in rec["ledger_note"]
        # the correction note used to overwrite this one
        assert "quadrature disagrees with the closed form" in rec["ledger_note"]


def test_verify_domain_skip(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
identities = cor2
cor2.delta = 0.5
cor2.n = 1
cor2.p = 9
cor2.q = 0
cor2.tau = -0.5
cor2.x = 1
""")
    out_path = tmp_path / "skip.jsonl"
    rc, out, _ = run(capsys, "verify", "--config", cfg,
                     "--out", str(out_path))
    assert rc == 0
    assert "1 SKIPPED" in out
    rec = json.loads(out_path.read_text(encoding="utf-8"))
    assert rec["verdict"] == "SKIPPED(domain)"
    assert "tau > 0" in rec["ledger_note"]
    assert rec["oracle_value"] is None


def test_verify_order_past_gamma_overflow(tmp_path, capsys):
    # Gamma(200) exceeds double range; the run used to abort after the six
    # delta = 0.5 records
    cfg = write_cfg(tmp_path, """
identities = cor2
cor2.delta = 0.5, 200
cor2.n = 1
cor2.q = 0
""")
    out_path = tmp_path / "big.jsonl"
    rc, out, _ = run(capsys, "verify", "--config", cfg,
                     "--out", str(out_path))
    assert rc == 0
    # the order-200 values underflow; see test_verify_underflow_is_skipped
    assert "12 records, 6 PASS, 0 FAIL, 6 SKIPPED" in out
    assert len(out_path.read_text(encoding="utf-8").splitlines()) == 12


def test_verify_long_terminating_series_pass(tmp_path, capsys):
    # the closed form's series has 66 and 81 terms here; summed in floats
    # past 64 terms, it failed all 48 records (5.5e112 against the oracle's
    # 2.7e109 at n = 65, the wrong sign at n = 80)
    cfg = write_cfg(tmp_path, """
identities = cor2
cor2.n = 65, 80
cor2.p = 200.5
""")
    out_path = tmp_path / "long.jsonl"
    rc, out, _ = run(capsys, "verify", "--config", cfg, "--out", str(out_path))
    assert rc == 0
    assert "48 records, 48 PASS, 0 FAIL, 0 SKIPPED" in out
    records = [json.loads(line) for line in
               out_path.read_text(encoding="utf-8").splitlines()]
    assert {r["point"]["n"] for r in records} == {65, 80}


def test_verify_overflow_is_skipped(tmp_path, capsys):
    # the n = 200 closed form's gamma prefactor exceeds the double range;
    # the run used to abort there with OverflowError and never reach cor3
    cfg = write_cfg(tmp_path, """
identities = cor2, cor3
cor2.n = 3, 200
cor2.p = 405.5
""")
    out_path = tmp_path / "huge.jsonl"
    rc, out, _ = run(capsys, "verify", "--config", cfg, "--out", str(out_path))
    assert rc == 0
    assert "96 records, 72 PASS, 0 FAIL, 24 SKIPPED" in out
    records = [json.loads(line) for line in
               out_path.read_text(encoding="utf-8").splitlines()]
    skipped = [r for r in records if r["verdict"] == "SKIPPED(overflow)"]
    assert len(skipped) == 24
    assert all(r["identity"] == "cor2" and r["point"]["n"] == 200 for r in skipped)
    assert all(r["ledger_note"].startswith("closed_form_value overflows")
               for r in skipped)
    passed = [(r["identity"], r["point"]["n"]) for r in records if r["verdict"] == "PASS"]
    assert passed.count(("cor2", 3)) == 24
    assert sum(1 for tag, _ in passed if tag == "cor3") == 48


def test_verify_non_finite_product_is_skipped(tmp_path, capsys):
    # each factor of the closed form is finite and their product is not: the
    # record said PASS with inf on every side and rel_diff 0, in a line that
    # report could not parse
    cfg = write_cfg(tmp_path, "identities = cor2\ncor2.delta = 0.5\ncor2.n = 1\n"
                    "cor2.p = 9\ncor2.q = 1.5\ncor2.tau = 2\ncor2.x = 1e150\n")
    out_path = tmp_path / "inf.jsonl"
    rc, out, _ = run(capsys, "verify", "--config", cfg, "--out", str(out_path))
    assert rc == 0
    assert "1 records, 0 PASS, 0 FAIL, 1 SKIPPED" in out
    rec = strict_json(out_path.read_text(encoding="utf-8"))
    assert rec["verdict"] == "SKIPPED(overflow)"
    assert rec["oracle_value"] is rec["closed_form_value"] is rec["quadrature_value"] is None
    assert rec["ledger_note"].startswith("closed_form_value overflows the double range")
    rc, out, _ = run(capsys, "report", str(out_path))
    assert rc == 0
    assert "total: 1 records, 0 pass, 0 fail, 1 skipped" in out


def test_verify_underflow_is_skipped(tmp_path, capsys):
    # x^(tau+delta-1)/Gamma(tau+delta) underflows at delta = 200, x <= 2:
    # every value is -0 or subnormal (-1.7e-317, -5.0e-320), so rel_diff 0
    # compared nothing and must not read as a PASS
    cfg = write_cfg(tmp_path, """
identities = cor2
cor2.delta = 200
cor2.n = 1
cor2.q = 0
""")
    out_path = tmp_path / "tiny.jsonl"
    rc, out, _ = run(capsys, "verify", "--config", cfg, "--out", str(out_path))
    assert rc == 0
    assert "6 records, 0 PASS, 0 FAIL, 6 SKIPPED" in out
    records = [json.loads(line) for line in
               out_path.read_text(encoding="utf-8").splitlines()]
    for rec in records:
        assert rec["verdict"] == "SKIPPED(underflow)"
        assert abs(rec["closed_form_value"]) < sys.float_info.min
        assert format(rec["closed_form_value"], ".17g") in rec["ledger_note"]
    subnormal = [r for r in records if r["closed_form_value"] != 0.0]
    assert [r["point"]["x"] for r in subnormal] == [2, 2]


def test_verify_lemma_underflow_is_skipped():
    # the quadrature lemma's value at order 200 and x = 0.5 is exactly 0
    grid = dict(DEFAULT_GRIDS["lem3"], delta=[200.0], x=[0.5])
    records = run_verification(SweepConfig(identities=["lem3"], grids={"lem3": grid}))
    assert [r.verdict for r in records] == ["SKIPPED(underflow)"] * 2
    assert all(r.ledger_note.startswith("closed_form_value 0 underflows")
               for r in records)


def test_verify_unsupported_kernel_skip(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
identities = lem2
lem2.delta = 0.5
lem2.delta_prime = 0.3
lem2.mu = 0.2
lem2.mu_prime = 0.4
lem2.epsilon = 1.1
lem2.tau = 2
lem2.x = 1
""")
    out_path = tmp_path / "kern.jsonl"
    rc, out, _ = run(capsys, "verify", "--config", cfg,
                     "--out", str(out_path))
    assert rc == 0
    rec = json.loads(out_path.read_text(encoding="utf-8"))
    assert rec["verdict"] == "SKIPPED(unsupported-kernel)"
    assert rec["closed_form_value"] is not None


@pytest.mark.parametrize("flag", ["tol_oracle", "tol_quadrature", "tol_reduction"])
def test_verify_zero_tolerance_flag_is_honoured(flag):
    args = build_parser().parse_args(["verify", "--" + flag.replace("_", "-"), "0"])
    cfg = build_sweep_config({}, args)
    assert getattr(cfg, flag) == 0.0


def test_verify_zero_oracle_tolerance_fails_inexact_records(tmp_path, capsys):
    # the default cor2 grid passed with every rel_diff near 1e-15 when
    # --tol-oracle 0 was dropped as falsy
    out_path = tmp_path / "strict.jsonl"
    rc, _, _ = run(capsys, "verify", "--identities", "cor2", "--tol-oracle", "0",
                   "--out", str(out_path))
    records = [json.loads(line) for line in
               out_path.read_text(encoding="utf-8").splitlines()]
    inexact = [r for r in records if r["rel_diff"] > 0.0]
    assert inexact
    assert all(r["verdict"] == "FAIL" for r in inexact)
    assert rc == 1


@pytest.mark.parametrize("key, value, source", [
    ("tol_quadrature", "nan", "flag"),
    ("tol_oracle", "-1", "flag"),
    ("tol_reduction", "-0.5", "flag"),
    ("tol_oracle", "-1e-3", "config"),
    ("tol_quadrature", "nan", "config"),
])
def test_verify_rejects_nan_and_negative_tolerances(tmp_path, capsys, key, value, source):
    # a NaN quadrature tolerance passed every record (no comparison with NaN
    # is true) and a negative one failed every record
    out_path = tmp_path / "records.jsonl"
    argv = ["verify", "--identities", "cor2", "--out", str(out_path)]
    if source == "flag":
        argv += ["--" + key.replace("_", "-"), value]
    else:
        argv += ["--config", write_cfg(tmp_path, f"{key} = {value}\n")]
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert key in err
    assert not out_path.exists()


def test_verify_infinite_tolerance_is_honoured():
    args = build_parser().parse_args(["verify", "--tol-oracle", "inf"])
    cfg = build_sweep_config({"tol_reduction": "inf"}, args)
    assert cfg.tol_oracle == cfg.tol_reduction == math.inf


@pytest.mark.parametrize("key", ["tol_oracle", "tol_quadrature", "tol_reduction"])
def test_verify_rejects_a_tolerance_past_the_double_range(tmp_path, capsys, key):
    # ended in "a value overflows the double range (int too large to convert
    # to float)", naming no key
    out_path = tmp_path / "records.jsonl"
    config = f"identities = cor2\n{key} = 1" + "0" * 400 + "\n"
    rc, out, err = run(capsys, "verify", "--config", write_cfg(tmp_path, config),
                       "--out", str(out_path))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and key in err and "double range" in err
    assert not out_path.exists()


@pytest.mark.parametrize("config, key, lines", [
    # ran x = 2 alone and exited 0
    pytest.param("identities = cor2\ncor2.x = 1\n# x again\ncor2.x = 2\n", "cor2.x",
                 (2, 4), id="grid-values"),
    pytest.param("tol_oracle = 1e-3\nidentities = cor2\ntol_oracle = 1e-12\n",
                 "tol_oracle", (1, 3), id="tolerance"),
    pytest.param("identities = cor2\nidentities = cor5\n", "identities", (1, 2),
                 id="identities"),
])
def test_verify_rejects_a_key_set_twice_in_a_config_file(tmp_path, capsys, config, key,
                                                         lines):
    out_path = tmp_path / "records.jsonl"
    path = write_cfg(tmp_path, config)
    rc, out, err = run(capsys, "verify", "--config", path, "--out", str(out_path))
    assert (rc, out) == (2, "")
    first, second = lines
    assert err == f"error: {path}:{second}: {key} is already set on line {first}\n"
    assert not out_path.exists()


@pytest.mark.parametrize("config, key", [
    ("identities = cor2\ncor2.x = 1, nan\n", "cor2.x"),
    ("identities = lem1\nlem1.x = inf\n", "lem1.x"),
    ("identities = lem1\nlem1.x = nan\n", "lem1.x"),
    ("identities = cor2\ncor2.delta = -1e400\n", "cor2.delta"),
    # an int past the double range ended in an OverflowError naming no key
    pytest.param("identities = cor2\ncor2.x = 1" + "0" * 400 + "\n", "cor2.x",
                 id="int-past-double-range"),
])
def test_verify_rejects_non_finite_grid_values(tmp_path, capsys, config, key):
    # a NaN x aborted the run after one record ("cannot convert NaN to
    # integer ratio"); an infinite or NaN lemma x wrote bare inf/nan tokens
    # that report could not parse
    out_path = tmp_path / "records.jsonl"
    rc, _, err = run(capsys, "verify", "--config", write_cfg(tmp_path, config),
                     "--out", str(out_path))
    assert rc == 2
    assert err.startswith("error: ") and key in err and "finite" in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv, config, named", [
    # every cor2 record was written twice: 192 records
    pytest.param(["--identities", "cor2,cor2"], "", "repeated identities: 'cor2'",
                 id="repeated-tag"),
    pytest.param(["--identities", "cor2"], "cor2.x = 1, 1\n",
                 "cor2.x: grid value 1 is repeated", id="repeated-value"),
    # a PASS record whose point said "n":1.5 held the values of n = 1
    pytest.param(["--identities", "cor2"], "cor2.n = 1.5\n",
                 "cor2.n: a degree must be an integer >= 0, got 1.5", id="fractional-degree"),
    pytest.param([], "cor2.x = ,\n", "empty value list: ','", id="empty-list"),
    pytest.param([], "identities cor2\n", ":1: expected key = value", id="no-equals-sign"),
    pytest.param([], "as_printed = yes\n", "as_printed must be true or false, got 'yes'",
                 id="as-printed-value"),
    # None: --config names a file that does not exist
    pytest.param([], None, "cannot read config", id="unreadable-config"),
])
def test_verify_rejects_a_bad_configuration(tmp_path, capsys, argv, config, named):
    out_path = tmp_path / "records.jsonl"
    path = str(tmp_path / "missing.cfg") if config is None else write_cfg(tmp_path, config)
    rc, out, err = run(capsys, "verify", *argv, "--config", path, "--out", str(out_path))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and named in err
    assert not out_path.exists()


@pytest.mark.parametrize("value, argv, as_printed", [
    ("true", [], True), ("false", [], False), ("false", ["--as-printed"], True),
])
def test_verify_as_printed_config_key(value, argv, as_printed):
    args = build_parser().parse_args(["verify", *argv])
    assert build_sweep_config({"as_printed": value}, args).as_printed is as_printed


@pytest.mark.parametrize("flag, value", [("--x", "nan"), ("--tau", "inf"),
                                         ("--delta", "-1e999")])
def test_eval_rejects_non_finite_point_flags(capsys, flag, value):
    # --x nan printed "value":nan, which is not JSON
    argv = {"--family": "rl-left", "--delta": "1", "--tau": "2", "--x": "0.5"}
    argv[flag] = value
    rc, out, err = run(capsys, "eval", "image", *(t for kv in argv.items() for t in kv))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and flag in err and "finite" in err


def test_negative_values_in_exponent_notation_reach_the_program(capsys):
    # argparse took -1e-3 for an option and exited 2 with its usage dump
    rc, out, err = run(capsys, "eval", "image", "--family", "rl-left",
                       "--delta", "1", "--tau", "2", "--x", "-1e-3")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: need x > 0")
    rc, out, _ = run(capsys, "eval", "image", "--family", "msm-left-int",
                     "--delta", "0.5", "--delta-prime", "-3e-1", "--mu", "0.2",
                     "--mu-prime", "0.4", "--epsilon", "1.1", "--tau", "2")
    assert rc == 0
    assert json_tail(out)["params"]["delta_prime"] == -0.3


@pytest.mark.parametrize("value", ["-inf", "-nan", "-Infinity"])
def test_negative_non_finite_values_reach_the_program(capsys, value):
    # argparse took -inf for an option and exited 2 with its usage dump
    rc, out, err = run(capsys, "eval", "image", "--family", "rl-left",
                       "--delta", "1", "--tau", "2", "--x", value)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: --x must be finite, got ")


@pytest.mark.parametrize("argv, config", [
    (["verify", "--identities", ",,"], None),
    (["verify"], "identities =\n"),
    # the empty flag replaces the file's list; it is not dropped as falsy
    (["verify", "--identities", ",,"], "identities = cor2\n"),
])
def test_empty_tag_selection_is_rejected(tmp_path, capsys, argv, config):
    # the first two ran 0 records and exited 0
    out_path = tmp_path / "out"
    argv = [*argv, "--out", str(out_path)]
    if config is not None:
        argv += ["--config", write_cfg(tmp_path, config)]
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert "no identities" in err
    assert not out_path.exists()


@pytest.mark.parametrize("flag, message", [
    ("--identities", "error: no identities selected"),
    ("--out", "error: cannot write : "),
    ("--config", "error: cannot read config : "),
], ids=["identities", "out", "config"])
def test_empty_verify_flag_is_honoured(tmp_path, monkeypatch, capsys, flag, message):
    # each empty value was dropped as falsy: --identities "" ran every tag,
    # --out "" wrote verification.jsonl and --config "" read no file, exit 0
    monkeypatch.chdir(tmp_path)
    argv = {"--identities": "cor2", "--out": str(tmp_path / "out"), flag: ""}
    rc, out, err = run(capsys, "verify", *(t for pair in argv.items() for t in pair))
    assert rc == 2
    assert out == ""
    assert err.startswith(message)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tags, flag, n_fail, note", [
    ("lem3,lem4", "--tol-reduction", 3, "five-parameter embedding quadrature disagrees: "),
    ("lem1,lem3", "--tol-quadrature", 8, None),
    ("lem5,lem6", "--tol-oracle", 6, None),
])
def test_verify_lemma_zero_tolerance_failures(tmp_path, capsys, tags, flag, n_fail, note):
    # one zero tolerance per lemma comparison: the embedding check, the
    # quadrature reference and the derivative composition oracle. At zero
    # the embedding check fails wherever its two quadratures differ in any
    # bit, at 3 of the 8 points
    out_path = tmp_path / "strict.jsonl"
    rc, out, _ = run(capsys, "verify", "--identities", tags, flag, "0",
                     "--out", str(out_path))
    assert rc == 1
    assert f"8 records, {8 - n_fail} PASS, {n_fail} FAIL, 0 SKIPPED" in out
    for line in out_path.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        if rec["identity"] in ("lem5", "lem6"):
            # a derivative family has no direct quadrature; every record says so
            assert rec["ledger_note"].startswith("quadrature comparison omitted: ")
        elif rec["verdict"] == "FAIL" and note is not None:
            assert rec["ledger_note"].startswith(note)
        else:
            assert rec["ledger_note"] is None


def test_verify_derivative_lemma_oracle_domain_is_skipped(tmp_path, capsys):
    # a DomainError of a lem5/lem6 point used to escape verify (exit 2 after
    # 4 of 12 records); mu = 5 violates tau > beta - alpha at both tau
    cfg = write_cfg(tmp_path, "identities = lem5, lem6\nlem5.mu = 0.1, 5\n")
    out_path = tmp_path / "deriv.jsonl"
    rc, out, _ = run(capsys, "verify", "--config", cfg, "--out", str(out_path))
    assert rc == 0
    assert "12 records, 8 PASS, 0 FAIL, 4 SKIPPED" in out
    records = [json.loads(line) for line in
               out_path.read_text(encoding="utf-8").splitlines()]
    skipped = [r for r in records if r["verdict"] != "PASS"]
    assert [(r["identity"], r["point"]["mu"]) for r in skipped] == [("lem5", 5)] * 4
    for rec in skipped:
        assert rec["verdict"] == "SKIPPED(domain)"
        assert "violates" in rec["ledger_note"]
        assert rec["oracle_value"] is None


def test_verify_derivative_lemma_far_from_its_conditions_passes(tmp_path, capsys):
    # delta = 200 was refused by the printed msm-left condition on the
    # composition's inner integral, which that integral does not need
    cfg = write_cfg(tmp_path, "identities = lem5, lem6\nlem5.delta = 0.3, 200\n")
    out_path = tmp_path / "deriv.jsonl"
    rc, out, _ = run(capsys, "verify", "--config", cfg, "--out", str(out_path))
    assert rc == 0
    assert "12 records, 12 PASS, 0 FAIL, 0 SKIPPED" in out
    records = [json.loads(line) for line in
               out_path.read_text(encoding="utf-8").splitlines()]
    assert [r["point"]["delta"] for r in records if r["identity"] == "lem5"] == [0.3] * 4 + [200] * 4


@pytest.mark.parametrize("epsilon", [-0.5, -1.5])
def test_verify_derivative_lemma_at_nonpositive_gamma_passes(tmp_path, capsys, epsilon):
    # power_image answered at gamma <= 0 while the composition oracle refused
    # it, so all 8 records were SKIPPED(domain); with m = max(floor(gamma) +
    # 1, 0) = 0 the derivative is its inner integral of order -gamma
    cfg = write_cfg(tmp_path, f"identities = lem5, lem6\nlem5.epsilon = {epsilon}\n"
                    f"lem6.epsilon = {epsilon}\n")
    out_path = tmp_path / "deriv.jsonl"
    rc, out, _ = run(capsys, "verify", "--config", cfg, "--out", str(out_path))
    assert rc == 0
    assert "8 records, 8 PASS, 0 FAIL, 0 SKIPPED" in out
    for line in out_path.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        assert rec["point"]["epsilon"] == epsilon
        assert rec["rel_diff"] <= 1e-13


def test_verify_lemma_nonpositive_x_is_skipped(tmp_path, capsys):
    # the power image's x^e raised ValueError at x <= 0, which aborted
    # verify (exit 2, no record) instead of skipping the point
    cfg = write_cfg(tmp_path, "identities = lem1, lem5\n"
                    "lem1.x = -1, 0.5\nlem5.x = 0, 0.7\n")
    out_path = tmp_path / "lemma.jsonl"
    rc, out, _ = run(capsys, "verify", "--config", cfg, "--out", str(out_path))
    assert rc == 0
    assert "8 records, 4 PASS, 0 FAIL, 4 SKIPPED" in out
    records = [json.loads(line) for line in
               out_path.read_text(encoding="utf-8").splitlines()]
    skipped = [r for r in records if r["point"]["x"] <= 0]
    assert len(skipped) == 4
    for rec in skipped:
        assert rec["verdict"] == "SKIPPED(domain)"
        assert "x > 0" in rec["ledger_note"]
    # the points with x > 0 keep the records they have on their own
    kept = [r for r in records if r["point"]["x"] > 0]
    alone = run_verification(SweepConfig(identities=["lem1", "lem5"], grids={
        "lem1": dict(DEFAULT_GRIDS["lem1"], x=[0.5]),
        "lem5": dict(DEFAULT_GRIDS["lem5"], x=[0.7]),
    }))
    assert kept == [json.loads(cli._json_line(asdict(r))) for r in alone]


@pytest.mark.parametrize("command", ["verify"])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, command):
    # a FileNotFoundError traceback, exit 1
    path = tmp_path / "missing" / "out"
    rc, out, err = run(capsys, command, "--identities", "cor2", "--out", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err


def test_verify_omitted_embedding_check_is_noted():
    # at epsilon != 0 lem4's five-parameter embedding leaves the single-
    # series slice; the reduction check was dropped without a note
    grid = dict(DEFAULT_GRIDS["lem4"], epsilon=[0.4])
    records = run_verification(SweepConfig(identities=["lem4"], grids={"lem4": grid}))
    assert len(records) == 4
    for rec in records:
        assert rec.verdict == "PASS"
        assert rec.quadrature_value is not None
        assert rec.ledger_note.startswith("five-parameter embedding check omitted: ")
        assert "two-series kernel regime" in rec.ledger_note


def test_verify_streams_records_before_an_abort(tmp_path, monkeypatch):
    # records were written only after the last point, so an uncaught
    # error left no file at all
    real_evaluate = identities._evaluate_point
    calls = []

    def evaluate(tag, point, cfg):
        calls.append(point)
        if len(calls) == 3:
            raise RuntimeError("injected failure")
        return real_evaluate(tag, point, cfg)

    monkeypatch.setattr(identities, "_evaluate_point", evaluate)
    out_path = tmp_path / "partial.jsonl"
    with pytest.raises(RuntimeError):
        main(["verify", "--identities", "cor2", "--out", str(out_path)])
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["point"] for line in lines] == calls[:2]


@pytest.mark.parametrize("error, reason", [
    (NonConvergedError("quadrature did not stabilize (injected)"), "nonconverged"),
    (OverflowError("quadrature is inf (injected)"), "overflow"),
], ids=["nonconverged", "overflow"])
def test_lemma_failed_quadrature_keeps_other_records(monkeypatch, error, reason):
    real_apply = identities.operator_apply

    def apply(op, f, x, *args, **kwargs):
        if x == 2.0:
            raise error
        return real_apply(op, f, x, *args, **kwargs)

    monkeypatch.setattr(identities, "operator_apply", apply)
    grid = {k: v[:1] for k, v in DEFAULT_GRIDS["lem1"].items()}
    grid["x"] = [0.5, 2.0]
    records = run_verification(SweepConfig(identities=["lem1"], grids={"lem1": grid}))
    assert [r.point["x"] for r in records] == [0.5, 2.0]
    ok, skipped = records
    assert ok.verdict == "PASS"
    assert skipped.verdict == f"SKIPPED({reason})"
    assert skipped.ledger_note == str(error)
    assert skipped.quadrature_value is None
    assert skipped.closed_form_value is not None


def test_repeated_verify_pass_builds_no_rule_and_sums_no_series(monkeypatch):
    # default-grid throughput rests on the rule and kernel-piece caches: a
    # pass over points already verified builds no rule and sums no 2F1
    # kernel series (each kernel piece sums its series by one pfq_at call)
    calls = {}
    for name in ("roots_jacobi", "pfq_at"):
        def counted(*args, _real=getattr(quadrature, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(quadrature, name, counted)
    quadrature._gj_rule.cache_clear()
    quadrature._kernel_piece.cache_clear()
    cfg = SweepConfig(identities=["cor1", "lem1"], grids={})
    first = run_verification(cfg)
    assert calls["roots_jacobi"] > 0 and calls["pfq_at"] > 0
    calls.clear()
    assert run_verification(cfg) == first
    assert calls == {}


# a jittered cor5 point (random-grid seed 1 of the benchmark) whose weight
# exponent -0.92 needs accurate rule weights: with weights good to 1e-8 its
# quadrature never stabilized (see
# test_quadrature.test_gj_rule_first_moment_at_strong_singularity)
COR5_JITTERED = {
    "delta": 0.4863487217003225, "n": 1, "p": 9, "q": 0,
    "tau": 0.43419323235677404, "x": 0.9714197245768867,
}


def _cor5_jittered_record():
    cfg = SweepConfig(identities=["cor5"],
                      grids={"cor5": {k: [v] for k, v in COR5_JITTERED.items()}})
    (record,) = run_verification(cfg)
    return record


def test_cor5_jittered_point_passes_with_quadrature():
    record = _cor5_jittered_record()
    assert record.verdict == "PASS"
    assert record.ledger_note is None
    assert rel_diff(record.quadrature_value, record.closed_form_value) <= 1e-12


@pytest.mark.parametrize("error", [
    NonConvergedError("quadrature did not stabilize (injected)"),
    OverflowError("quadrature is inf (injected)"),
], ids=["nonconverged", "overflow"])
def test_cor5_failed_quadrature_keeps_pass(monkeypatch, error):
    # the exact oracle still judges a point whose quadrature fails
    def failed(*args, **kwargs):
        raise error

    monkeypatch.setattr(identities, "monomial_quadrature", failed)
    record = _cor5_jittered_record()
    assert record.verdict == "PASS"
    assert record.quadrature_value is None
    assert record.rel_diff <= 1e-10
    assert record.ledger_note == f"quadrature comparison omitted: {error}"


def _one_point(tag: str, **values) -> dict:
    """The first point of tag's default grid, with values in place."""
    return {tag: {**{k: v[:1] for k, v in DEFAULT_GRIDS[tag].items()},
                  **{k: [v] for k, v in values.items()}}}


def test_refused_quadrature_keeps_the_oracle_verdict():
    # the order 1e-300 minus 1 rounds to -1.0, an exponent the quadrature
    # refuses; its DomainError ended `verify` before any record was written
    (record,) = run_verification(SweepConfig(
        identities=["cor2"], grids=_one_point("cor2", delta=1e-300)))
    assert record.verdict == "PASS"
    assert record.quadrature_value is None
    assert record.rel_diff <= 1e-10
    assert record.ledger_note == (
        "quadrature comparison omitted: weight exponents must be > -1, got (1.0, -1.0)"
    )


THM3_ZERO_FACTOR = dict(delta=0, delta_prime=0, mu=0, mu_prime=0.5, epsilon=1.5,
                        tau=1.5, x=1)


@pytest.mark.parametrize("tag, values, note, oracle", [
    # the derivative row keeps Gamma(0) in its denominator; the oracle's
    # value is mpmath's, 9.3053827172539591, and 0 without M_n
    ("thm3", dict(THM3_ZERO_FACTOR, n=1, p=9, q=0),
     "image at tau=1.5: uncancelled gamma pole at 0.0 in the denominator", 9.305382717253957),
    ("lem5", THM3_ZERO_FACTOR,
     "image at tau=1.5: uncancelled gamma pole at 0.0 in the denominator", 0.0),
    # the series parameter q+1 = 0; mpmath gives the oracle 8.2532876221843205
    ("cor2", dict(delta=0.5, n=2, p=9, q=-1, tau=2, x=1),
     "series term denominator vanishes at k = 0", 8.253287622184317),
], ids=["thm3", "lem5", "cor2"])
def test_refused_closed_form_keeps_the_oracle_value(tag, values, note, oracle):
    # the record was SKIPPED(domain) with every value null
    (record,) = run_verification(SweepConfig(identities=[tag], grids=_one_point(tag, **values)))
    assert record.verdict == "SKIPPED(domain)"
    assert record.ledger_note.endswith(note)
    assert record.oracle_value == oracle
    assert record.closed_form_value is None and record.quadrature_value is None


@pytest.mark.parametrize("tag, symbol", [("lem1", "epsilon"), ("lem3", "delta")])
def test_refused_quadrature_skips_a_lemma(tag, symbol):
    # a lemma without an oracle has nothing left to compare
    (record,) = run_verification(SweepConfig(
        identities=[tag], grids=_one_point(tag, **{symbol: 1e-300})))
    assert record.verdict == "SKIPPED(domain)"
    assert record.ledger_note == "weight exponents must be > -1, got (-1.0, 0.0)"
    assert record.closed_form_value is not None
    assert record.quadrature_value is None


def test_verify_writes_every_record_past_the_quadratures_limits(tmp_path, capsys):
    # order 1e-300 rounds a weight exponent to -1; orders 1e308 and 2000 put
    # the rule's mass factor 2^(alpha+beta+1) past the double range. The
    # first two each ended the run with exit 2 and no record.
    cfg = write_cfg(tmp_path, """
identities = cor2, lem3
cor2.delta = 0.5, 1e-300, 1e308, 2000
cor2.n = 1
cor2.q = 0
cor2.tau = 2
cor2.x = 0.5, 2
lem3.delta = 0.6, 1e-300, 1e308, 2000
lem3.tau = 1.5
lem3.x = 0.5, 2
""")
    out_path = tmp_path / "limits.jsonl"
    rc, out, _ = run(capsys, "verify", "--config", cfg, "--out", str(out_path))
    assert rc == 0
    assert "16 records, 6 PASS, 0 FAIL, 10 SKIPPED" in out
    records = [json.loads(line) for line in out_path.read_text(encoding="utf-8").splitlines()]
    # both x values of each order get the same verdict; the closed forms at
    # orders 1e308 and 2000 underflow at x = 0.5 and 2
    assert [(r["identity"], r["point"]["delta"], r["verdict"]) for r in records[::2]] == [
        ("cor2", 0.5, "PASS"), ("cor2", 1e-300, "PASS"),
        ("cor2", 1e308, "SKIPPED(underflow)"), ("cor2", 2000, "SKIPPED(underflow)"),
        ("lem3", 0.6, "PASS"), ("lem3", 1e-300, "SKIPPED(domain)"),
        ("lem3", 1e308, "SKIPPED(overflow)"), ("lem3", 2000, "SKIPPED(overflow)"),
    ]
    assert [r["verdict"] for r in records[::2]] == [r["verdict"] for r in records[1::2]]
    # the rule's refusal names the exponents at once, not the errno of a
    # power that overflowed after the nodes were found
    for r in records:
        if r["point"]["delta"] in (1e308, 2000):
            assert "Gauss-Jacobi weight" in r["ledger_note"]
            assert "past the double range" in r["ledger_note"]


def test_verify_rejects_unknown_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "identities = cor2\nbogus = 1\n")
    rc, _, err = run(capsys, "verify", "--config", cfg)
    assert rc == 2
    assert "bogus" in err


def test_verify_rejects_unknown_symbol(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cor2.alpha = 1\n")
    rc, _, err = run(capsys, "verify", "--config", cfg)
    assert rc == 2
    assert "cor2.alpha" in err


def test_verify_rejects_bad_number(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cor2.delta = banana\n")
    rc, _, err = run(capsys, "verify", "--config", cfg)
    assert rc == 2
    assert "banana" in err


def test_config_comments_and_spacing(tmp_path):
    path = write_cfg(tmp_path, "\n# note\n  out = r.jsonl  # trailing\n")
    assert load_config_file(path) == {"out": "r.jsonl"}


def test_verify_writes_to_the_config_files_out(tmp_path, capsys):
    out_path = tmp_path / "records.jsonl"
    cfg = write_cfg(tmp_path, SMALL_CFG + f"out = {out_path}\n")
    rc, out, _ = run(capsys, "verify", "--config", cfg)
    assert rc == 0
    assert out == f"verify: 8 records, 8 PASS, 0 FAIL, 0 SKIPPED -> {out_path}\n"
    assert len(out_path.read_text(encoding="utf-8").splitlines()) == 8
    # the flag still wins over the file
    flag_path = tmp_path / "flag.jsonl"
    rc, out, _ = run(capsys, "verify", "--config", cfg, "--out", str(flag_path))
    assert rc == 0
    assert out.endswith(f" -> {flag_path}\n")
    assert flag_path.read_bytes() == out_path.read_bytes()


def _loaded_probe(label: str) -> str:
    return (f"print('loaded {label}:', "
            "sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n")


def test_import_and_eval_rhs_leave_numpy_and_scipy_unloaded():
    # the package is plain Python: no command loads numpy or scipy, an eval
    # that integrates included
    rhs = ["eval", "rhs", "--identity", "thm3", "--delta", "0.5", "--delta-prime", "0.3",
           "--mu", "0.2", "--mu-prime", "0.4", "--epsilon", "1.1", "--n", "16",
           "--p", "35.5", "--q", "1.5", "--tau", "2", "--x", "1"]
    # F3 sums its 2F1s with the scalar pfq, never on node arrays
    f3 = ["eval", "f3", "--a", "0.5", "--a-prime", "0.5", "--b", "0.5", "--b-prime", "0.5",
          "--c", "1.5", "--w", "-0.99", "--z", "0.99"]
    series = ["eval", "pfq", "--num", "0.5,1.25", "--den", "2.5", "--arg", "0.3"]
    apply = ["eval", "apply", "--family", "rl-left", "--delta", "0.5", "--tau", "2", "--x", "1"]
    script = (
        "import sys\nimport runpy\nimport fracimage\n" + _loaded_probe("import")
        + f"sys.argv = ['fracimage'] + {rhs!r}\n"
        + "try:\n    runpy.run_module('fracimage', run_name='__main__', alter_sys=True)\n"
        + "except SystemExit as exc:\n    assert exc.code == 0\n"
        + _loaded_probe("rhs")
        + f"assert fracimage.cli.main({f3!r}) == 0\n"
        + _loaded_probe("f3")
        + f"assert fracimage.cli.main({series!r}) == 0\n"
        + _loaded_probe("pfq")
        + f"fracimage.cli.main({apply!r})\n"
        + _loaded_probe("apply")
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines() if line.startswith("loaded ")] == [
        "loaded import: []",
        "loaded rhs: []",
        "loaded f3: []",
        "loaded pfq: []",
        "loaded apply: []",
    ]
    assert '"target":"rhs"' in proc.stdout
    assert '"target":"f3"' in proc.stdout and '"target":"pfq"' in proc.stdout


def test_no_module_imports_scipy():
    # the package has no runtime dependency: no module imports numpy or scipy
    package = Path(cli.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] in ("numpy", "scipy") for n in names), path.name


def test_only_the_cli_imports_the_command_line_layer():
    # the verification engine lives in identities: no library module
    # imports argparse, csv or the cli (__main__ is the entry point)
    package = Path(cli.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        if path.stem in ("cli", "__main__"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = ".".join(filter(None, [
                    "fracimage" if node.level else "", node.module or ""]))
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("argparse", "csv"), path.name
                assert not (name + ".").startswith("fracimage.cli."), path.name
    # perfbench takes these from fracimage.cli
    for name in ("ALL_TAGS", "DEFAULT_GRIDS", "SweepConfig", "VerificationRecord",
                 "rel_diff", "run_verification"):
        assert getattr(cli, name) is getattr(identities, name), name


def test_verify_rejects_unknown_identity(tmp_path, capsys):
    out_path = tmp_path / "records.jsonl"
    rc, out, err = run(capsys, "verify", "--identities", "cor2,nope",
                       "--out", str(out_path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "nope" in err
    assert not out_path.exists()


def test_report_pass(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_CFG)
    out_path = tmp_path / "records.jsonl"
    run(capsys, "verify", "--config", cfg, "--out", str(out_path))
    rc, out, _ = run(capsys, "report", str(out_path))
    assert rc == 0
    assert "total: 8 records, 8 pass, 0 fail, 0 skipped" in out
    assert "corrections ledger" in out
    assert "thm1-kernel-argument" in out
    assert "ode-eigenvalue" in out


def test_report_fail(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
identities = thm1
thm1.delta = 0.5
thm1.delta_prime = 0.3
thm1.mu = 0.2
thm1.mu_prime = 0.4
thm1.epsilon = 1.1
thm1.n = 0
thm1.p = 9
thm1.q = 0
thm1.tau = 2
thm1.x = 1
""")
    out_path = tmp_path / "bad.jsonl"
    run(capsys, "verify", "--config", cfg, "--as-printed",
        "--out", str(out_path))
    rc, out, _ = run(capsys, "report", str(out_path))
    assert rc == 1
    assert "failures:" in out
    assert "thm1-kernel-argument" in out


def test_report_lists_only_the_failures(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    failed = REPORT_LINE.replace('"PASS"', '"FAIL"').replace('"x":1.0', '"x":2.0')
    path.write_text(REPORT_LINE + failed + REPORT_LINE, encoding="utf-8")
    rc, out, _ = run(capsys, "report", str(path))
    assert rc == 1
    assert "total: 3 records, 2 pass, 1 fail, 0 skipped" in out
    listing = out.split("\nfailures:\n", 1)[1].split("\n\n", 1)[0]
    assert listing == "  cor2 [x=2.0]\n    oracle 1.0  closed 1.0  rel diff 0.0"


def test_report_empty(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    rc, out, _ = run(capsys, "report", str(path))
    assert rc == 0
    assert "total: 0 records, 0 pass, 0 fail, 0 skipped" in out


def test_report_missing_file(tmp_path, capsys):
    rc, _, err = run(capsys, "report", str(tmp_path / "nope.jsonl"))
    assert rc == 2
    assert "error:" in err


REPORT_LINE = ('{"identity":"cor2","point":{"x":1.0},"oracle_value":1.0,'
               '"closed_form_value":1.0,"quadrature_value":null,"rel_diff":0.0,'
               '"verdict":"PASS","ledger_note":null}\n')


@pytest.mark.parametrize("text, lineno, reason", [
    ("#!/bin/sh\necho hi\n", 1, "Expecting value"),
    ("{}\n", 1, "missing 7 required positional arguments"),
    ("\n[1]\n", 2, "must be a mapping"),
    # these ended in a TypeError traceback from max over rel_diff (exit 1)
    pytest.param(REPORT_LINE.replace('"rel_diff":0.0', '"rel_diff":null'), 1,
                 "rel_diff must be a number, got None", id="null-rel-diff"),
    pytest.param("\n" + REPORT_LINE.replace('"oracle_value":1.0', '"oracle_value":"1"'),
                 2, "oracle_value must be a number or null, got '1'", id="string-value"),
    # these ended in an AttributeError or KeyError traceback
    pytest.param(REPORT_LINE.replace('"PASS"', '1'), 1, "verdict must be a string, got 1",
                 id="number-verdict"),
    pytest.param(REPORT_LINE.replace('"PASS"', '"MAYBE"'), 1, "unknown verdict 'MAYBE'",
                 id="unknown-verdict"),
    pytest.param(REPORT_LINE.replace('{"x":1.0}', '[1]'), 1, "point must be an object, got [1]",
                 id="list-point"),
    # verify never writes these tokens; a NaN rel_diff was reported as
    # "max rel diff 0.000e+00" with exit 0, since max(0.0, nan) is 0.0
    pytest.param(REPORT_LINE.replace('"rel_diff":0.0', '"rel_diff":NaN'), 1,
                 "NaN is not standard JSON", id="nan-rel-diff"),
    pytest.param("\n" + REPORT_LINE.replace('"x":1.0', '"x":Infinity'), 2,
                 "Infinity is not standard JSON", id="infinite-point"),
    pytest.param(REPORT_LINE.replace('"oracle_value":1.0', '"oracle_value":-Infinity'), 1,
                 "-Infinity is not standard JSON", id="negative-infinite-value"),
])
def test_report_names_the_line_that_is_not_a_record(tmp_path, capsys, text, lineno, reason):
    # a shell script printed only the JSON error, without the file; `{}`
    # ended in a KeyError traceback and exit 1
    path = tmp_path / "records.jsonl"
    path.write_text(text, encoding="utf-8")
    rc, out, err = run(capsys, "report", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {path}:{lineno}: ") and reason in err


def test_report_into_a_closed_pipe_exits_without_a_traceback(tmp_path):
    # 3,000 failures print about 160 kB, more than the pipe and stdout
    # buffers hold, so report is still writing when `| head -2` goes
    path = tmp_path / "records.jsonl"
    path.write_text(REPORT_LINE.replace('"PASS"', '"FAIL"') * 3000, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "fracimage", "report", str(path)],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert head[0].startswith(b"identity ") and head[1].startswith(b"cor2 ")
    assert err == ""


def _readme_section(title: str) -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_documents_every_verb_and_eval_target():
    section = _readme_section("Command line")
    verbs = re.findall(r"^### ([a-z]+)$", section, re.MULTILINE)
    usage = build_parser().format_usage()
    assert verbs == re.search(r"\{([\w,]+)\}", usage).group(1).split(",")
    targets = re.search(r"^Evaluate one object at one point\. Targets: (.+?)\.$",
                        section, re.MULTILINE | re.DOTALL).group(1)
    assert re.findall(r"`(\w+)`", targets) == list(cli.EVAL_TARGETS)


def test_readme_library_example_runs():
    code = re.search(r"```python\n(.*?)```", _readme_section("Library"), re.DOTALL).group(1)
    names: dict = {}
    exec(code, names)
    assert rel_diff(names["closed"], names["oracle"]) <= 1e-10


def test_default_grids_cover_all_tags():
    parser = build_parser()
    assert parser is not None
    tags = {"thm1", "thm2", "thm3", "thm4",
            "cor1", "cor2", "cor3", "cor4", "cor5", "cor6",
            "lem1", "lem2", "lem3", "lem4", "lem5", "lem6"}
    assert set(DEFAULT_GRIDS) == tags
