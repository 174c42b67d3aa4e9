"""A wrong formula row must fail the records that read it.

thm3/thm4 and lem5/lem6 judge the derivative families' closed forms
against the composition of each family's defining integral, which never
reads the derivative image row. So each of that row's 14 entries (three
numerator and three denominator gamma arguments and the exponent of x, in
both families), shifted by +0.25, must FAIL the default grid's records
while their oracle values stay as they were: every record for a gamma
argument, and every record at x != 1 for the exponent, which x^e hides at
x = 1. A refused point would not count as caught; none is refused.
"""

import dataclasses

import pytest

from fracimage.identities import SweepConfig, run_verification
from fracimage.operators import FAMILIES, Family

SHIFT = 0.25
TAGS = {Family.MSM_LEFT_DERIV: ("thm3", "lem5"), Family.MSM_RIGHT_DERIV: ("thm4", "lem6")}
ENTRIES = ("num0", "num1", "num2", "den0", "den1", "den2", "exponent")
# default-grid records per tag, and those at x = 1
RECORDS = {"thm3": 48, "thm4": 48, "lem5": 4, "lem6": 4}
AT_X_1 = {"thm3": 16, "thm4": 16, "lem5": 0, "lem6": 0}


def _shifted(image, entry: int):
    """image with its entry-th value, counted through numerator,
    denominator and exponent, moved by SHIFT."""
    def shifted(*args):
        num, den, exponent = image(*args)
        flat = [*num, *den, exponent]
        flat[entry] += SHIFT
        return tuple(flat[:len(num)]), tuple(flat[len(num):-1]), flat[-1]
    return shifted


@pytest.mark.parametrize("family", list(TAGS), ids=lambda f: f.value)
@pytest.mark.parametrize("entry", range(len(ENTRIES)), ids=ENTRIES)
def test_a_shifted_derivative_row_fails_its_records(monkeypatch, family, entry):
    spec = FAMILIES[family]
    baseline = {tag: run_verification(SweepConfig([tag], {})) for tag in TAGS[family]}
    monkeypatch.setitem(FAMILIES, family,
                        dataclasses.replace(spec, image=_shifted(spec.image, entry)))
    for tag in TAGS[family]:
        records = run_verification(SweepConfig([tag], {}))
        assert [r.oracle_value for r in records] == [r.oracle_value for r in baseline[tag]]
        assert {r.verdict for r in records} <= {"PASS", "FAIL"}
        failed = [r.verdict == "FAIL" for r in records]
        if ENTRIES[entry] == "exponent":
            assert failed == [r.point["x"] != 1.0 for r in records]
            assert sum(failed) == RECORDS[tag] - AT_X_1[tag]
        else:
            assert sum(failed) == len(records) == RECORDS[tag]
