"""The size budget of the package source, and the names it exports."""

import inspect
from pathlib import Path

import fracimage

# ROADMAP item 11: src/ stays at or below its PR-10 high-water mark, so new
# checks are paid for with deletions
SRC_LINE_BUDGET = 3369


def test_src_stays_within_its_line_budget():
    package = Path(fracimage.__file__).resolve().parent
    lines = sum(len(path.read_bytes().splitlines()) for path in package.glob("*.py"))
    assert lines <= SRC_LINE_BUDGET, f"src/fracimage is {lines} lines"


def test_all_lists_every_public_name_the_package_binds():
    # __all__ is kept by hand: a name deleted from a module, or one the
    # package starts importing, must leave or join it in the same change
    bound = {name for name, value in vars(fracimage).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(fracimage.__all__) == sorted(bound | {"__version__"})
