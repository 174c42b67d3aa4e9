"""Regression gate on the default `verify` grid.

tests/data/default_records.jsonl.gz is a frozen copy of the records file
of the default run, and tests/data/as_printed_records.jsonl.gz that of
the same run with --as-printed. A change that moves a value in its last
bits keeps these tests passing; one that changes a verdict or a note, or
moves a value by more than 1e-12 relative, does not. Regenerate the files,
after checking that every change in them is intended, from the root of
the checkout with

    PYTHONPATH=src python -m fracimage verify --out default_records.jsonl
    gzip -9n -c default_records.jsonl > tests/data/default_records.jsonl.gz
    PYTHONPATH=src python -m fracimage verify --as-printed --out as_printed_records.jsonl
    gzip -9n -c as_printed_records.jsonl > tests/data/as_printed_records.jsonl.gz
"""

import gzip
import json
import math
from collections import Counter
from pathlib import Path

import pytest

from fracimage.cli import main
from fracimage.identities import (
    ALL_TAGS, DEFAULT_GRIDS, SweepConfig, rel_diff, run_verification,
)

DATA = Path(__file__).parent / "data"
VALUES = ("oracle_value", "closed_form_value", "quadrature_value")
RTOL = 1e-12


def _refuse(token):
    raise ValueError(f"not standard JSON: {token}")


def _load(lines):
    # parse_constant sees only the NaN and Infinity tokens standard JSON lacks
    return [json.loads(line, parse_constant=_refuse) for line in lines if line.strip()]


def _assert_matches_frozen(tmp_path, capsys, flags, frozen, exit_code):
    out_path = tmp_path / "records.jsonl"
    assert main(["verify", *flags, "--out", str(out_path)]) == exit_code
    capsys.readouterr()
    got = _load(out_path.read_text(encoding="utf-8").splitlines())
    with gzip.open(DATA / frozen, "rt", encoding="utf-8") as handle:
        want = _load(handle)
    assert len(got) == len(want) == 696
    for new, old in zip(got, want):
        where = (old["identity"], old["point"])
        assert (new["identity"], new["point"]) == where
        assert new["verdict"] == old["verdict"], where
        assert new["ledger_note"] == old["ledger_note"], where
        for key in VALUES:
            if old[key] is None:
                assert new[key] is None, (where, key)
            else:
                assert math.isclose(new[key], old[key], rel_tol=RTOL), (where, key)
        # rel_diff is itself relative, so it gets the same bound absolutely
        assert abs(new["rel_diff"] - old["rel_diff"]) <= RTOL, where
    return got


def test_default_verify_matches_frozen_records(tmp_path, capsys):
    _assert_matches_frozen(tmp_path, capsys, [], "default_records.jsonl.gz", 0)


def test_as_printed_verify_matches_frozen_records(tmp_path, capsys):
    got = _assert_matches_frozen(
        tmp_path, capsys, ["--as-printed"], "as_printed_records.jsonl.gz", 1
    )
    verdicts = [r["verdict"] for r in got]
    assert (verdicts.count("PASS"), verdicts.count("FAIL")) == (540, 156)


@pytest.fixture(scope="module")
def records():
    return run_verification(SweepConfig(list(ALL_TAGS), DEFAULT_GRIDS))


def test_default_quadrature_agrees_with_closed_form(records):
    # far inside the 1e-6 quadrature tolerance: the worst default record,
    # cor5 at weight exponent -0.9375, was 2.7e-9 off with a rule whose
    # weights were good to about 1e-10 there
    checked = [r for r in records if r.quadrature_value is not None]
    assert len(checked) == 496
    for r in checked:
        where = (r.identity, r.point)
        assert rel_diff(r.quadrature_value, r.closed_form_value) <= 1e-10, where


def test_every_omitted_quadrature_says_why(records):
    # these 200 records had quadrature_value null and no note: the
    # derivative families have no direct quadrature, and thm1/thm2 points
    # off the single-series slices need the two-series kernel
    omitted = [r for r in records if r.quadrature_value is None]
    assert Counter(r.identity for r in omitted) == {
        "thm1": 48, "thm2": 48, "thm3": 48, "thm4": 48, "lem5": 4, "lem6": 4,
    }
    for r in omitted:
        assert r.ledger_note.startswith("quadrature comparison omitted: "), r.point
        reason = r.ledger_note.removeprefix("quadrature comparison omitted: ")
        assert ("has no direct quadrature" in reason
                or "two-series kernel regime" in reason), reason
