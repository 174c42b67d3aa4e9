"""Per-layer measurements: the spans the traced run records around each
module's functions, the counters derived from them, and fixed-input
medians of single calls.

Layers are the package modules.  Every hook wraps a function from outside
(see spans.Tracer.install); nothing in the package is edited.
"""

from __future__ import annotations

import statistics
import time

import fracimage
from fracimage.cli import rel_diff
from fracimage.identities import IdentityId
from fracimage.jacobi import PolySpec

from spans import Tracer, summarize

PACKAGE = "fracimage"

# pfq sums a terminating series of at most this many terms exactly in
# Fractions; anything else goes through the float path.
PFQ_EXACT_TERMS = 64


def _pfq_path(numerator_params, *args, **kwargs) -> str:
    stops = [-float(a) for a in numerator_params if float(a) <= 0 and float(a).is_integer()]
    exact = stops and min(stops) <= PFQ_EXACT_TERMS
    return "hypergeom.pfq.exact" if exact else "hypergeom.pfq.float"


# (module, function, span name): one span per call.
SPANS = (
    ("cli", "run_verification", "cli.run_verification"),
    ("identities", "image_rhs", "identities.image_rhs"),
    ("identities", "lhs_oracle", "identities.lhs_oracle"),
    ("identities", "quadrature_value", "identities.quadrature_value"),
    ("identities", "deriv_composition_oracle", "identities.deriv_composition_oracle"),
    ("operators", "power_image", "operators.power_image"),
    ("quadrature", "operator_apply", "quadrature.operator_apply"),
    ("quadrature", "roots_jacobi", "quadrature.rule_builds"),
    ("hypergeom", "gauss_2f1", "hypergeom.gauss_2f1"),
    ("hypergeom", "pfq", _pfq_path),
    ("hypergeom", "appell_f3", "hypergeom.appell_f3"),
    ("gammafns", "gamma_product_eval", "gammafns.gamma_product_eval"),
    ("jacobi", "_coefficients_exact", "jacobi.coefficients"),
)

# span names reported with calls, total_s and self_s
TIMED = (
    "identities.image_rhs",
    "identities.lhs_oracle",
    "identities.quadrature_value",
    "identities.deriv_composition_oracle",
    "operators.power_image",
    "quadrature.operator_apply",
    "quadrature.quad_endpoint_singular",
    "hypergeom.gauss_2f1",
    "hypergeom.pfq.exact",
    "hypergeom.pfq.float",
    "hypergeom.appell_f3",
    "gammafns.gamma_product_eval",
    "jacobi.coefficients",
)


def install(tracer: Tracer) -> list[str]:
    """Hook every layer; returns the hooks whose target does not exist."""
    missing = []

    def hook(module, attr, make_wrapper):
        if not tracer.install(PACKAGE, module, attr, make_wrapper):
            missing.append(f"{module}.{attr}")

    for module, attr, name in SPANS:
        hook(module, attr, lambda fn, name=name: tracer.span(fn, name))
    # A rule lookup evaluates the integrand at every node it returns; the
    # result a quadrature accepts names the size of the rule it kept.
    hook("quadrature", "quad_endpoint_singular", lambda fn: tracer.span(
        fn, "quadrature.quad_endpoint_singular",
        on_result=lambda res: tracer.add("quadrature.nodes_accepted", res.nodes)))

    def on_rule(rule):
        tracer.add("quadrature.rule_lookups")
        tracer.add("quadrature.nodes_evaluated", len(rule[0]))

    hook("quadrature", "_gj_rule", lambda fn: tracer.counter(fn, on_rule))
    return missing


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    stats = summarize(tracer.spans())
    zero = {"calls": 0, "total": 0, "self": 0}
    out: dict[str, tuple[float, str]] = {}
    cli = stats.get("cli.run_verification", zero)
    out["cli.run_verification.calls"] = (cli["calls"], "count")
    out["cli.self_s"] = (cli["self"] * 1e-9, "s")
    for name in TIMED:
        s = stats.get(name, zero)
        out[f"{name}.calls"] = (s["calls"], "count")
        out[f"{name}.total_s"] = (s["total"] * 1e-9, "s")
        out[f"{name}.self_s"] = (s["self"] * 1e-9, "s")
    builds = stats.get("quadrature.rule_builds", zero)
    lookups = tracer.counters.get("quadrature.rule_lookups", 0)
    evaluated = tracer.counters.get("quadrature.nodes_evaluated", 0)
    accepted = tracer.counters.get("quadrature.nodes_accepted", 0)
    out["quadrature.rule_builds.calls"] = (builds["calls"], "count")
    out["quadrature.rule_builds.total_s"] = (builds["total"] * 1e-9, "s")
    out["quadrature.rule_lookups"] = (lookups, "count")
    out["quadrature.rule_cache_hit_ratio"] = (_ratio(lookups - builds["calls"], lookups), "ratio")
    out["quadrature.nodes_evaluated"] = (evaluated, "count")
    out["quadrature.nodes_useful_ratio"] = (_ratio(accepted, evaluated), "ratio")
    return out


def median_call_s(fn, budget_s: float = 0.25) -> float:
    """Median wall time of one call, from batches of about 5 ms each."""
    start = time.perf_counter()
    fn()
    batch = max(1, int(0.005 / max(time.perf_counter() - start, 1e-7)))
    samples = []
    end = time.perf_counter() + budget_s
    while len(samples) < 5 or (time.perf_counter() < end and len(samples) < 500):
        t = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t) / batch)
    return statistics.median(samples)


# Default thm1 operator parameters, the alpha' = 0 slice on which the F3
# kernel collapses to a 2F1, and a cubic, as in the default grid.
THM1 = (0.5, 0.3, 0.2, 0.4, 1.1)
THM1_COLLAPSED = (0.5, 0.0, 0.2, 0.4, 1.1)
CUBIC = PolySpec(3, 9.0, 1.5)
TAU, X = 2.0, 1.0


def fixed_input_medians() -> tuple[dict[str, tuple[float, str]], list[str]]:
    """One median per row of the roadmap's per-layer table, as name ->
    (value, unit), and the list of wrong results: each oracle and quadrature
    value is checked against the closed form at its tolerance."""
    fi = fracimage

    def quad(identity, params):
        return lambda: fi.quadrature_value(identity, params, CUBIC, TAU, X).value

    # name, unit, call, and (identity, params, tolerance) to check it against
    cases = (
        ("gammafns.log_gamma_signed_us", "us", lambda: fi.log_gamma_signed(7.3), None),
        ("hypergeom.gauss_2f1_us", "us", lambda: fi.gauss_2f1(0.5, 1.25, 2.5, 0.3), None),
        # thm1's closed-form 5F4 at n = 3, tau = 2, x = 1
        ("hypergeom.pfq_exact_us", "us",
         lambda: fi.pfq((-3, -5, 2.0, 2.1, 2.1), (2.5, 2.4, 2.3, 2.6), -1.0), None),
        ("hypergeom.appell_f3_us", "us",
         lambda: fi.appell_f3(0.5, 0.5, 0.5, 0.5, 1.5, 0.5, 0.5), None),
        ("operators.power_image_us", "us",
         lambda: fi.power_image(fi.msm_left_int(*THM1), TAU), None),
        ("identities.image_rhs_us", "us",
         lambda: fi.image_rhs(IdentityId.THM1, THM1, CUBIC, TAU, X), None),
        ("identities.lhs_oracle_us", "us",
         lambda: fi.lhs_oracle(IdentityId.THM1, THM1, CUBIC, TAU, X),
         (IdentityId.THM1, THM1, 1e-10)),
        ("quadrature.plain_gj_ms", "ms", quad(IdentityId.COR2, (0.5,)),
         (IdentityId.COR2, (0.5,), 1e-6)),
        ("quadrature.kernel_2f1_ms", "ms", quad(IdentityId.COR1, (0.6, 0.2, 0.4)),
         (IdentityId.COR1, (0.6, 0.2, 0.4), 1e-6)),
        ("quadrature.collapsed_f3_ms", "ms", quad(IdentityId.THM1, THM1_COLLAPSED),
         (IdentityId.THM1, THM1_COLLAPSED, 1e-6)),
    )
    scale = {"us": 1e6, "ms": 1e3}
    out = {}
    wrong = []
    for name, unit, fn, reference in cases:
        if reference is not None:
            identity, params, tol = reference
            closed = fi.image_rhs(identity, params, CUBIC, TAU, X).value
            diff = rel_diff(fn(), closed)
            if not diff <= tol:
                wrong.append(f"{name}: rel diff {diff:.3e} from the closed form")
        out[name] = (median_call_s(fn) * scale[unit], unit)
    return out, wrong
