"""Kernel probe rows: single calls into one layer, timed untraced.

Each row is the median over repeated calls on fixed inputs, so it isolates
one kernel from the workloads' mixes.  The Taylor2 product rows also report
the computed operation rate (70 coefficient products per point) and the
computed compulsory traffic (two 5 x 5 tables read and one written per
point, 8 bytes per coefficient); both are derived from array sizes, not
measured by hardware counters.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

from tracer import MUL_BYTES_PER_POINT, MUL_PRODUCTS_PER_POINT

CATALOG = (("log", {}), ("arg", {}), ("re_poly", {"n": 3}), ("im_poly", {"n": 3}),
           ("joukowski", {}), ("im_joukowski", {}), ("perturbed_log", {}),
           ("warped_arctan", {}))


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _annulus_points(rng, n):
    r = rng.uniform(1.2, 2.5, n)
    th = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)


def run_probes(lf) -> dict:
    """Probe metrics (name -> value) for the per-layer report."""
    rng = np.random.default_rng(12345)
    out = {}

    for n, reps in ((1, 300), (512, 100), (65536, 7)):
        a = lf.jets.Taylor2(rng.standard_normal((5, 5, n)))
        b = lf.jets.Taylor2(rng.standard_normal((5, 5, n)))
        t = _median_time(lambda: a * b, reps)
        out[f"jets.mul_us.n{n}"] = t * 1e6
        out[f"jets.mul_gflops.n{n}"] = MUL_PRODUCTS_PER_POINT * n / t / 1e9
        out[f"jets.mul_gbs.n{n}"] = MUL_BYTES_PER_POINT * n / t / 1e9

    for name, params in CATALOG:
        u = lf.catalog_field(name, **params)
        for n, reps in ((1, 100), (65536, 3)):
            if name == "warped_arctan":
                pts = np.stack([rng.uniform(-2.0, 2.0, n), rng.uniform(0.0, 6.0, n)], axis=-1)
            else:
                pts = _annulus_points(rng, n)
            out[f"fields.jet_us.{name}.n{n}"] = _median_time(lambda: u.jet(pts), reps) * 1e6

    chart = lf.WarpedChart.cosh_cylinder(2.0 / (2.0 * math.pi), -3.0, 3.0)
    u = lf.catalog_field("warped_arctan")
    out["levelsets.level_radius_us"] = _median_time(
        lambda: lf.level_radius(u, chart, 1.3), 20) * 1e6

    factor = lf.conical_factor(0.0, [((1.2, 0.0), 0.5), ((0.0, -1.6), 0.3)])
    out["bic.conical_circle_length_us"] = _median_time(
        lambda: lf.conical_circle_length(factor, 1.2), 20) * 1e6

    cap = lf.ConformalChart(lf.sphere_cap_factor(0.1), 1.0, math.e)
    log = lf.catalog_field("log")
    out["curvature_flow.pde1_residual_us"] = _median_time(
        lambda: lf.pde1_residual(log, cap, (1.3, 0.4)), 20) * 1e6
    out["curvature_flow.principle_audit_s"] = _median_time(
        lambda: lf.principle_audit(log, cap, (1.05, 1.5), "ln_abs_k",
                                   "min_abs_on_boundary"), 3)
    return out
