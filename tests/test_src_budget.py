"""The size budget of the package source."""

from pathlib import Path

import fracimage

# ROADMAP item 11: src/ stays at or below its PR-10 high-water mark, so new
# checks are paid for with deletions
SRC_LINE_BUDGET = 3369


def test_src_stays_within_its_line_budget():
    package = Path(fracimage.__file__).resolve().parent
    lines = sum(len(path.read_bytes().splitlines()) for path in package.glob("*.py"))
    assert lines <= SRC_LINE_BUDGET, f"src/fracimage is {lines} lines"
