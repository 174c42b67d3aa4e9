"""Command line interface: eval targets, verification runs, reports."""

import json

import pytest

from fracimage import cli
from fracimage.cli import (
    DEFAULT_GRIDS,
    SweepConfig,
    build_parser,
    build_sweep_config,
    load_config_file,
    main,
    rel_diff,
    run_verification,
)
from fracimage.errors import NonConvergedError
from fracimage.identities import IdentityId, lhs_oracle, quadrature_value
from fracimage.jacobi import PolySpec


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def json_tail(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


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


def test_eval_apply_unsupported_kernel(capsys):
    rc, _, err = run(capsys, "eval", "apply", "--family", "msm-right-int",
                     "--delta", "0.5", "--delta-prime", "0.3", "--mu", "0.2",
                     "--mu-prime", "0.4", "--epsilon", "1.1",
                     "--tau", "2", "--x", "1")
    assert rc == 2
    assert "alpha = 0 or beta = 0" in err


def test_eval_apply_nonconverged_exit(capsys):
    # singular-weight node noise keeps the default tolerance unreachable
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


def test_verify_streams_records_before_an_abort(tmp_path, monkeypatch):
    # records were written only after the last point, so an uncaught
    # error left no file at all
    real_evaluate = cli._evaluate_point
    calls = []

    def evaluate(tag, point, cfg):
        calls.append(point)
        if len(calls) == 3:
            raise RuntimeError("injected failure")
        return real_evaluate(tag, point, cfg)

    monkeypatch.setattr(cli, "_evaluate_point", evaluate)
    out_path = tmp_path / "partial.jsonl"
    with pytest.raises(RuntimeError):
        main(["verify", "--identities", "cor2", "--out", str(out_path)])
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["point"] for line in lines] == calls[:2]


def test_lemma_nonconverged_point_keeps_other_records(monkeypatch):
    real_apply = cli.operator_apply

    def apply(op, f, x, *args, **kwargs):
        if x == 2.0:
            raise NonConvergedError("quadrature did not stabilize (injected)")
        return real_apply(op, f, x, *args, **kwargs)

    monkeypatch.setattr(cli, "operator_apply", apply)
    grid = {k: v[:1] for k, v in DEFAULT_GRIDS["lem1"].items()}
    grid["x"] = [0.5, 2.0]
    records = run_verification(SweepConfig(identities=["lem1"], grids={"lem1": grid}))
    assert [r.point["x"] for r in records] == [0.5, 2.0]
    ok, skipped = records
    assert ok.verdict == "PASS"
    assert skipped.verdict == "SKIPPED(nonconverged)"
    assert skipped.ledger_note == "quadrature did not stabilize (injected)"
    assert skipped.quadrature_value is None
    assert skipped.closed_form_value is not None


# a jittered cor5 point (random-grid seed 1 of the benchmark) whose
# quadrature never stabilizes: the rule's weights at exponent -0.92 are
# inaccurate (see test_quadrature.test_gj_rule_first_moment_at_strong_singularity)
COR5_NONCONVERGED = {
    "delta": 0.4863487217003225, "n": 1, "p": 9, "q": 0,
    "tau": 0.43419323235677404, "x": 0.9714197245768867,
}


def test_cor5_nonconverged_point_keeps_pass():
    pt = COR5_NONCONVERGED
    with pytest.raises(NonConvergedError):
        quadrature_value(IdentityId.COR5, (pt["delta"],),
                         PolySpec(pt["n"], pt["p"], pt["q"]), pt["tau"], pt["x"])
    cfg = SweepConfig(identities=["cor5"],
                      grids={"cor5": {k: [v] for k, v in pt.items()}})
    (record,) = run_verification(cfg)
    assert record.verdict == "PASS"
    assert record.quadrature_value is None
    assert record.rel_diff <= 1e-10
    assert record.ledger_note.startswith("quadrature comparison omitted:")


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


def test_sweep_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_CFG)
    rc, out, _ = run(capsys, "sweep", "--config", cfg, "--identity", "cor2")
    assert rc == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["identity", "delta"]
    assert header[-1] == "verdict"
    assert len(lines) == 9
    assert all(line.endswith("PASS") for line in lines[1:])
    # image values grow with x at fixed remaining coordinates
    rows = [line.split(",") for line in lines[1:]]
    x_col = header.index("x")
    v_col = header.index("closed_form_value")
    pairs = {}
    for row in rows:
        key = tuple(row[i] for i in range(len(header))
                    if header[i] not in ("x", "oracle_value",
                                         "closed_form_value",
                                         "quadrature_value", "rel_diff"))
        pairs.setdefault(key, []).append((float(row[x_col]),
                                          float(row[v_col])))
    for values in pairs.values():
        ordered = sorted(values)
        assert ordered[0][1] < ordered[-1][1]


def test_sweep_rejects_unknown_identity(capsys):
    rc, _, err = run(capsys, "sweep", "--identity", "nope")
    assert rc == 2
    assert "nope" in err


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


def test_default_grids_cover_all_tags():
    parser = build_parser()
    assert parser is not None
    tags = {"thm1", "thm2", "thm3", "thm4",
            "cor1", "cor2", "cor3", "cor4", "cor5", "cor6",
            "lem1", "lem2", "lem3", "lem4", "lem5", "lem6"}
    assert set(DEFAULT_GRIDS) == tags
