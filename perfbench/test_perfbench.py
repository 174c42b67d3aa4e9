"""Tests of the benchmark's own code: workload generation, the record gate,
the speed scaling and the span tracer.

    python -m pytest perfbench -q
"""

import sys
import types
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from fracimage import cli  # noqa: E402
from spans import NO_PARENT, Tracer, covered, summarize  # noqa: E402


def _shape(point: dict) -> tuple:
    """What jitter must keep: n, p and which coordinates are zero."""
    return (point.get("n"), point.get("p"), tuple(sorted(s for s, v in point.items() if v == 0)))


def test_workload_sizes():
    assert len(workloads.make("default-grid", 1)) == 696
    assert len(workloads.make("random-grid", 1)) == 696
    series = workloads.make("exact-series", 1)
    assert len(series) == 416
    assert all(p["p"] > 2 * p["n"] + 1 for tag, p in series if "n" in p)
    assert {tag for tag, _ in series} == {"thm3", "thm4", "lem5", "lem6"}


def test_random_grid_is_deterministic_per_seed():
    assert workloads.make("random-grid", 7) == workloads.make("random-grid", 7)
    assert workloads.make("random-grid", 7) != workloads.make("random-grid", 8)
    assert workloads.make("default-grid", 7) == workloads.make("default-grid", 8)


def test_random_grid_keeps_zeros_and_n_p_and_jitters_within_five_percent():
    base = workloads.default_grid()
    jittered = workloads.random_grid(3)
    assert Counter((t, _shape(p)) for t, p in jittered) == Counter((t, _shape(p)) for t, p in base)
    assert [t for t, _ in jittered] != [t for t, _ in base]  # shuffled
    moved = 0
    for tag, point in jittered:
        grid = cli.DEFAULT_GRIDS[tag]
        for symbol, value in point.items():
            if symbol in ("n", "p") or value == 0:
                assert value in grid[symbol]
                continue
            assert any(0.95 <= value / v <= 1.05 for v in grid[symbol] if v != 0)
            moved += value not in grid[symbol]
    assert moved > 0


def test_check_record_passes_a_real_record_and_flags_bad_ones():
    tag, point = "cor2", dict(delta=0.5, n=2, p=9.0, q=1.5, tau=2.0, x=1.0)
    cfg = workloads.one_point_config(tag, point)
    records = cli.run_verification(cfg)
    check = workloads.check_record(tag, point, records, cfg)
    assert (check.wrong, check.omitted) == (None, None)
    assert check.oracle_digits > 10 and check.quad_digits > 6

    rec = records[0]
    fields = dict(vars(rec))
    bad_value = cli.VerificationRecord(**dict(fields, oracle_value=rec.oracle_value * (1 + 1e-8)))
    assert "oracle rel diff" in workloads.check_record(tag, point, [bad_value], cfg).wrong
    failed = cli.VerificationRecord(**dict(fields, verdict="FAIL"))
    assert workloads.check_record(tag, point, [failed], cfg).wrong.startswith("verdict FAIL")
    other = dict(point, x=2.0)
    assert workloads.check_record(tag, other, records, cfg).wrong
    assert workloads.check_record(tag, point, ValueError("boom"), cfg).wrong
    omitted = cli.VerificationRecord(**dict(fields, quadrature_value=None,
                                            ledger_note="quadrature comparison omitted: x"))
    check = workloads.check_record(tag, point, [omitted], cfg)
    assert check.wrong is None and "omitted" in check.omitted


def test_pass_scales_each_latency_by_its_stretch_factor():
    p = run.Pass(wall_s=9.0, latencies=[0.1, 0.3, 0.2, 0.4], factors=[1.0, 1.0, 0.5, 0.5], checks=[])
    assert p.raw_records_per_s == pytest.approx(4 / 1.0)
    assert p.scaled_latencies == pytest.approx([0.1, 0.3, 0.1, 0.2])
    assert p.records_per_s == pytest.approx(4 / 0.7)
    assert run.speed_factor(run.REFERENCE_CALIBRATION_S, 3 * run.REFERENCE_CALIBRATION_S) == 0.5


def test_tally_counts_omitted_checks_apart_from_failures():
    checks = [
        workloads.Check(oracle_digits=14.0, quad_digits=9.0),
        workloads.Check(oracle_digits=12.0, omitted="cor5: did not stabilize"),
        workloads.Check(wrong="verdict FAIL"),
    ]
    counts = run.tally([run.Pass(1.0, [], [], checks)], workloads)
    assert (counts["attempted"], counts["failed"], counts["omitted_checks"]) == (3, 1, 1)
    assert counts["wrong"] == ["verdict FAIL"]
    assert (counts["oracle_digits"], counts["quad_digits"]) == (12.0, 9.0)


def test_digits_caps_at_double_precision():
    assert workloads.digits(0.0) == workloads.DIGITS_CAP
    assert workloads.digits(1e-20) == workloads.DIGITS_CAP
    assert workloads.digits(1e-9) == pytest.approx(9.0)


def test_covered_merges_overlaps_and_clips_to_parent():
    assert covered([], 0, 10) == 0
    assert covered([(2, 4), (3, 6), (8, 9)], 0, 10) == 5
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered([(1, 9), (2, 3)], 0, 10) == 8


def test_summarize_self_time_subtracts_children():
    # parent [0, 100] with children [10, 30] and [40, 90]; the second child
    # has its own child [50, 60]
    spans = [
        ("a", 0, 100, NO_PARENT),
        ("b", 10, 30, 0),
        ("b", 40, 90, 0),
        ("c", 50, 60, 2),
    ]
    stats = summarize(spans)
    assert stats["a"] == {"calls": 1, "total": 100, "self": 30}
    assert stats["b"] == {"calls": 2, "total": 70, "self": 60}
    assert stats["c"] == {"calls": 1, "total": 10, "self": 10}


def test_tracer_records_nested_spans_and_restores_functions():
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))

    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    user.inner = inner  # imported by name elsewhere in the package
    sys.modules.update({"fakepkg": pkg, "fakepkg.mod": mod, "fakepkg.user": user})
    try:
        assert tracer.install("fakepkg", "mod", "inner", lambda fn: tracer.span(fn, "inner"))
        assert tracer.install("fakepkg", "mod", "outer", lambda fn: tracer.span(
            fn, lambda x: f"outer.{x}", on_result=lambda r: tracer.add("results", r)))
        assert not tracer.install("fakepkg", "mod", "absent", lambda fn: fn)
        assert user.inner is not inner
        assert mod.outer(1) == 4
        assert user.inner(5) == 6
    finally:
        tracer.uninstall()
        for name in ("fakepkg", "fakepkg.mod", "fakepkg.user"):
            sys.modules.pop(name)
    assert (mod.inner, mod.outer, user.inner) == (inner, outer, inner)
    assert [(n, p) for n, _, _, p in tracer.spans()] == [("outer.1", NO_PARENT), ("inner", 0), ("inner", NO_PARENT)]
    assert tracer.counters == {"results": 4}
    # clock reads: outer starts 0, inner 10-20, outer ends 30, inner 40-50
    stats = summarize(tracer.spans())
    assert stats["outer.1"] == {"calls": 1, "total": 30, "self": 20}
    assert stats["inner"] == {"calls": 2, "total": 20, "self": 20}
