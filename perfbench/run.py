"""Verification benchmark for fracimage.

    python3 perfbench/run.py --workload default-grid --seed 1 --seconds 20 --trace 0

Drives `cli.run_verification` in-process, one point at a time, with one
thread and jobs = 1.  Every record is checked (see workloads.check_record);
a wrong verdict or value fails the run.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0  end-to-end metrics: setup_s from fresh `python -m fracimage eval`
           processes, then a warm-up pass and timed passes for --seconds.
           Times are scaled to the reference machine's speed by a fixed
           calibration loop run every CALIBRATE_EVERY_S (see calibrate).
--trace 1  per-layer metrics: an untraced and a traced pass, each from cold
           caches, spans around every module's functions, and fixed-input
           medians.  Spans go to perfbench/results/.

Must run from a checkout that holds src/fracimage; it builds nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from spans import Tracer, package_modules

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"

SETUP_RUNS = 7
IMPORT_RUNS = 5
CHILD_TIMEOUT_S = 60

# The host is shared: its speed drifts by up to 1.8x within a run, in spells
# of several seconds.  calibrate() times a fixed loop of the same kinds of
# work the package does (Fraction sums, float special functions, dict
# updates); every measured time is multiplied by
# REFERENCE_CALIBRATION_S / (the calibration time around it), which puts it
# at one fixed machine speed.  The loop takes 5 to 6 ms on the reference
# machine (see README); the constant only sets the scale.
CALIBRATE_EVERY_S = 0.25
REFERENCE_CALIBRATION_S = 0.005


def _load_package():
    """Import fracimage from this checkout's src/, or exit with status 1."""
    if not (SRC / "fracimage" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'fracimage'}; run from a fracimage checkout")
    sys.path.insert(0, str(SRC))
    import fracimage

    if Path(fracimage.__file__).resolve().parent != SRC / "fracimage":
        sys.exit(f"error: imported fracimage from {fracimage.__file__}, not {SRC}")
    return fracimage


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def calibrate() -> float:
    """Wall time of one run of a fixed loop."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 250):
        total += Fraction(k, k * k + 1)
    x = 0.0
    for k in range(1, 6500):
        x += math.lgamma(k * 0.01) * math.sin(k)
    table: dict = {}
    for k in range(6500):
        table[k % 61] = table.get(k % 61, 0) + k
    return time.perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """Scale for a time measured between two calibrations."""
    return REFERENCE_CALIBRATION_S / ((before + after) / 2)


def run_child(args: list[str]) -> tuple[float, str]:
    """Run `python <args>` against src/ in a fresh process; returns its wall
    time and standard output, or raises RuntimeError."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")
    return wall, proc.stdout


def _flag(symbol: str) -> str:
    return "--" + symbol.replace("_", "-")


def setup_target(points: list[tuple[str, dict]]):
    """The `eval` call a user of this workload would make, and its expected
    value computed in-process: `apply` (2F1-kernel quadrature of the first
    cor1 point's monomial) for the grids, `rhs` of the last thm3 point
    (n = 16) for exact-series."""
    from fracimage import identities, operators
    from fracimage.jacobi import PolySpec

    cor1 = [p for tag, p in points if tag == "cor1"]
    if cor1:
        p = cor1[0]
        params = (p["delta"], p["mu"], p["epsilon"])
        args = ["eval", "apply", "--family", "saigo-left", "--tau", repr(p["tau"]), "--x", repr(p["x"])]
        args += [a for s in ("delta", "mu", "epsilon") for a in (_flag(s), repr(p[s]))]
        expected = operators.power_image(operators.saigo_left(*params), p["tau"]).value_at(p["x"])
        return args, expected, 1e-6
    p = [p for tag, p in points if tag == "thm3"][-1]
    symbols = ("delta", "delta_prime", "mu", "mu_prime", "epsilon", "n", "p", "q", "tau", "x")
    args = ["eval", "rhs", "--identity", "thm3"]
    args += [a for s in symbols for a in (_flag(s), repr(p[s]))]
    params = tuple(p[s] for s in symbols[:5])
    poly = PolySpec(p["n"], p["p"], p["q"])
    expected = identities.image_rhs(identities.IdentityId.THM3, params, poly, p["tau"], p["x"]).value
    return args, expected, 1e-14


def setup_once(target) -> tuple[float, float, str | None]:
    """Wall time of one fresh `python -m fracimage eval` process, the speed
    factor around it, and what is wrong with its output, if anything."""
    args, expected, tol = target
    before = calibrate()
    wall, out = run_child(["-m", "fracimage", *args])
    factor = speed_factor(before, calibrate())
    value = json.loads(out.strip().splitlines()[-1])["value"]
    if not abs(value - expected) <= tol * abs(expected):
        return wall, factor, f"eval printed {value!r}, expected {expected!r}"
    return wall, factor, None


def measure_import(runs: int) -> list[float]:
    code = (
        "import time; t = time.perf_counter(); import fracimage; "
        "print(time.perf_counter() - t)"
    )
    return [float(run_child(["-c", code])[1]) for _ in range(runs)]


@dataclass
class Pass:
    """One pass over a workload: per-record latencies, the speed factor of
    the stretch each record ran in, and the checks."""

    wall_s: float
    latencies: list
    factors: list
    checks: list

    @property
    def raw_records_per_s(self) -> float:
        return len(self.latencies) / math.fsum(self.latencies)

    @property
    def scaled_latencies(self) -> list:
        return [x * f for x, f in zip(self.latencies, self.factors)]

    @property
    def records_per_s(self) -> float:
        return len(self.latencies) / math.fsum(self.scaled_latencies)


def run_pass(points, configs, cli, workloads) -> Pass:
    """Verify every point once.  A calibration runs before the first record
    and after every CALIBRATE_EVERY_S of record time; the records between
    two calibrations get the factor of those two."""
    results = []
    latencies = []
    factors = []
    start = time.perf_counter()
    before = calibrate()
    stretch = 0.0
    for i, cfg in enumerate(configs):
        t = time.perf_counter()
        try:
            result = cli.run_verification(cfg)
        except Exception as exc:  # one bad point must not end the pass
            result = exc
        latencies.append(time.perf_counter() - t)
        results.append(result)
        stretch += latencies[-1]
        if stretch >= CALIBRATE_EVERY_S or i == len(configs) - 1:
            after = calibrate()
            factors += [speed_factor(before, after)] * (len(latencies) - len(factors))
            before = after
            stretch = 0.0
    wall = time.perf_counter() - start
    checks = [
        workloads.check_record(tag, point, result, cfg)
        for (tag, point), result, cfg in zip(points, results, configs)
    ]
    return Pass(wall, latencies, factors, checks)


def reset_caches(package: str) -> None:
    """Empty every functools cache in the package, so a pass starts cold."""
    for mod in package_modules(package):
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def tally(passes: list[Pass], workloads) -> dict:
    """Counts over the checked records.  `failed` is the records whose
    answer was wrong or missing (each also makes the run incorrect);
    `omitted` is the records that passed with their quadrature check
    omitted, which failed_share counts as well."""
    checks = [c for p in passes for c in p.checks]
    wrong = [c.wrong for c in checks if c.wrong]
    oracle = [c.oracle_digits for c in checks if c.oracle_digits is not None]
    quad = [c.quad_digits for c in checks if c.quad_digits is not None]
    return {
        "attempted": len(checks),
        "failed": len(wrong),
        "omitted_checks": sum(1 for c in checks if c.omitted),
        "wrong": wrong,
        "omitted": sorted({c.omitted for c in checks if c.omitted}),
        "oracle_digits": min(oracle, default=workloads.DIGITS_CAP),
        "oracle_records": len(oracle),
        "quad_digits": min(quad, default=workloads.DIGITS_CAP),
        "quad_records": len(quad),
    }


def end_to_end(args, points, configs, cli, workloads) -> tuple[dict, dict, list[str]]:
    """A warm-up pass, then timed passes until they add up to --seconds.
    The set-up processes run between passes, spread over the run, so that
    they and the passes see the same spells of a shared machine.  Every
    time is scaled by the speed factor measured around it."""
    target = setup_target(points)
    setups = []
    passes = [run_pass(points, configs, cli, workloads)]  # warm-up
    timed = []
    measured = 0.0
    while not timed or measured < args.seconds:
        if len(setups) * args.seconds <= measured * SETUP_RUNS:
            setups.append(setup_once(target))
        timed.append(run_pass(points, configs, cli, workloads))
        measured += timed[-1].wall_s
    while len(setups) < SETUP_RUNS:
        setups.append(setup_once(target))
    passes += timed
    counts = tally(passes, workloads)
    wrong = [problem for _, _, problem in setups if problem] + counts.pop("wrong")
    latencies_ms = sorted(x * 1e3 for p in timed for x in p.scaled_latencies)
    raw_ms = sorted(x * 1e3 for p in timed for x in p.latencies)
    factors = [f for p in timed for f in p.factors]
    metrics = {
        "records_per_s": (statistics.median(p.records_per_s for p in timed), "1/s"),
        "record_ms.p50": (statistics.median(latencies_ms), "ms"),
        "record_ms.p95": (statistics.quantiles(latencies_ms, n=20)[18], "ms"),
        "setup_s": (statistics.median(wall * f for wall, f, _ in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "oracle_digits": (counts["oracle_digits"], "digits"),
        "quad_digits": (counts["quad_digits"], "digits"),
    }
    detail = {
        "timed_passes": len(timed),
        "pass_records_per_s": [p.records_per_s for p in timed],
        "latency_samples": len(latencies_ms),
        "setup_samples_s": [wall * f for wall, f, _ in setups],
        "setup_command": "python -m fracimage " + " ".join(target[0]),
        "speed_factor": {
            "median": statistics.median(factors),
            "min": min(factors),
            "max": max(factors),
        },
        "unscaled": {
            "records_per_s": statistics.median(p.raw_records_per_s for p in timed),
            "record_ms.p50": statistics.median(raw_ms),
            "record_ms.p95": statistics.quantiles(raw_ms, n=20)[18],
            "setup_s": statistics.median(wall for wall, _, _ in setups),
        },
        **counts,
    }
    return metrics, detail, wrong


def traced(args, points, configs, cli, workloads) -> tuple[dict, dict, list[str]]:
    import layers

    run_pass(points, configs, cli, workloads)  # warm-up
    reset_caches(layers.PACKAGE)
    untraced = run_pass(points, configs, cli, workloads)
    reset_caches(layers.PACKAGE)
    tracer = Tracer()
    missing = layers.install(tracer)
    try:
        traced_pass = run_pass(points, configs, cli, workloads)
    finally:
        tracer.uninstall()
    counts = tally([untraced, traced_pass], workloads)
    metrics = layers.metrics(tracer)
    fixed, wrong = layers.fixed_input_medians()
    wrong += counts.pop("wrong")
    metrics.update(fixed)
    import_times = measure_import(IMPORT_RUNS)
    metrics["setup.import_s"] = (statistics.median(import_times), "s")
    failed_or_omitted = counts["failed"] + counts["omitted_checks"]
    metrics["failed_share"] = (failed_or_omitted / counts["attempted"], "ratio")
    metrics["quadrature.checks_omitted"] = (counts["omitted_checks"], "count")
    metrics["trace.records_per_s"] = (traced_pass.records_per_s, "1/s")
    metrics["trace.untraced_records_per_s"] = (untraced.records_per_s, "1/s")
    metrics["trace.overhead_ratio"] = (untraced.records_per_s / traced_pass.records_per_s, "ratio")
    metrics["trace.spans"] = (len(tracer), "count")

    RESULTS.mkdir(parents=True, exist_ok=True)
    spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write_csv(str(spans_path))
    detail = {
        "missing_hooks": missing,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "import_samples_s": import_times,
        **counts,
    }
    return metrics, detail, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_package()
    import workloads
    from fracimage import cli

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    points = workloads.make(args.workload, args.seed)
    configs = [workloads.one_point_config(tag, point) for tag, point in points]

    measure = traced if args.trace else end_to_end
    metrics, detail, wrong = measure(args, points, configs, cli, workloads)

    info = machine_info()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "records_per_pass": len(points), "machine": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **detail, "wrong": wrong[:20],
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"machine: python {info['python']}, numpy {info['numpy']}, scipy {info['scipy']}, "
          f"nproc {info['nproc']}, cpu {info['cpu']}")
    print(f"workload {args.workload} seed {args.seed}: {len(points)} records per pass, "
          f"{detail['attempted']} checked, {detail['failed']} failed, "
          f"{detail['omitted_checks']} passed with a check omitted "
          f"(failed_share base {detail['attempted']})")
    for note in detail["omitted"]:
        print(f"  omitted check: {note}")
    for note in wrong[:20]:
        print(f"  WRONG: {note}")
    if not args.trace:
        print(f"  {detail['timed_passes']} timed passes after one warm-up; "
              f"record_ms over {detail['latency_samples']} samples; "
              f"setup_s median of {len(detail['setup_samples_s'])}: {detail['setup_command']}")
        factor = detail["speed_factor"]
        print(f"  speed factor median {factor['median']:.4g} (min {factor['min']:.4g}, "
              f"max {factor['max']:.4g}); unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in detail["unscaled"].items()))
    else:
        for hook in detail["missing_hooks"]:
            print(f"  hook not found, reported as 0: {hook}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  details -> {out_path.relative_to(ROOT)}")

    correct = not wrong
    print(json.dumps({
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
