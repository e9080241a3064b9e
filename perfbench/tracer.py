"""Wrapper tracer for levelflow's public functions.

The tracer replaces each public function of a levelflow module, and the
public methods of its classes, with a wrapper that records one span per
call: span key, start, end, parent span and the check it belongs to.  It
patches every binding site (a function imported by name into another
module, or re-exported by the package, is patched there too), so nothing
under ``src/`` has to change.  ``install`` patches, ``uninstall`` restores
the originals, so untraced runs execute the unmodified program.

Spans live in compact in-memory arrays and are written once, by ``save``,
when the run ends.  Self time is accumulated online: a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Taylor2 coefficients per point (5 x 5 table) and coefficient products per
# truncated degree-4 product: sum over i + j <= 4 of (i + 1)(j + 1).
JET_COEFFS = 25
MUL_PRODUCTS_PER_POINT = 70
# compulsory traffic of one product per point: read two tables, write one
MUL_BYTES_PER_POINT = 3 * JET_COEFFS * 8

# layers are levelflow's modules; "integrand" is time in integrands a caller
# hands to a quadrature rule, "bench" the benchmark's own root spans
LAYERS = ("jets", "fields", "charts", "identities", "harmonic", "levelsets",
          "quadrature", "integrand", "curvature_flow", "bic", "sampling", "cli")


def _rows(p) -> int:
    """Number of points in a point or an (n, 2) point array."""
    shape = p.shape if isinstance(p, np.ndarray) else np.shape(p)
    return 1 if len(shape) <= 1 else int(shape[0])


def _arg(fn, args, kwargs, name, index):
    if name in kwargs:
        return kwargs[name]
    if len(args) > index:
        return args[index]
    return inspect.signature(fn).parameters[name].default


class Tracer:
    """Span recorder and counter store for one traced run."""

    def __init__(self):
        self.keys: list[str] = []
        self._key_ids: dict[str, int] = {}
        self.span_key = array("i")
        self.span_parent = array("l")
        self.span_check = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.child_time = [0.0]
        self.check_id = -1
        # per key id: self time, calls, field-jet calls made inside the span
        self._self: list[float] = []
        self._calls: list[int] = []
        self._jets: list[int] = []
        # per layer (the key's first dotted part): open spans and the time
        # covered by its outermost spans (inclusive time)
        self.layers: list[str] = []
        self._layer_of: list[int] = []
        self._open: list[int] = []
        self._incl: list[float] = []
        self.counts: Counter = Counter()
        self.jet_calls = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def key_id(self, key: str) -> int:
        kid = self._key_ids.get(key)
        if kid is None:
            kid = self._key_ids[key] = len(self.keys)
            self.keys.append(key)
            self._self.append(0.0)
            self._calls.append(0)
            self._jets.append(0)
            layer = key.split(".")[0]
            if layer not in self.layers:
                self.layers.append(layer)
                self._open.append(0)
                self._incl.append(0.0)
            self._layer_of.append(self.layers.index(layer))
        return kid

    def call(self, kid: int, fn, args=(), kwargs=None):
        """Run ``fn(*args, **kwargs)`` inside a span with key id ``kid``."""
        idx = len(self.span_key)
        self.span_key.append(kid)
        self.span_parent.append(self.stack[-1])
        self.span_check.append(self.check_id)
        self.stack.append(idx)
        self.child_time.append(0.0)
        layer = self._layer_of[kid]
        self._open[layer] += 1
        jets_before = self.jet_calls
        start = perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            self.span_end[idx] = end
            dur = end - start
            self.stack.pop()
            self._self[kid] += dur - self.child_time.pop()
            self.child_time[-1] += dur
            self._calls[kid] += 1
            self._jets[kid] += self.jet_calls - jets_before
            self._open[layer] -= 1
            if not self._open[layer]:
                self._incl[layer] += dur

    def check(self, check_id: int, fn):
        """Root span of one benchmark check."""
        self.check_id = check_id
        try:
            return self.call(self.key_id("bench.check"), fn)
        finally:
            self.check_id = -1

    @property
    def self_time(self) -> dict:
        return defaultdict(float, zip(self.keys, self._self))

    @property
    def calls(self) -> Counter:
        return Counter(dict(zip(self.keys, self._calls)))

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, key, fn, before=None):
        tracer, kid = self, self.key_id(key)

        if before is None:
            def wrapper(*args, **kwargs):
                return tracer.call(kid, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                before(args, kwargs)
                return tracer.call(kid, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def install(self, lf) -> None:
        """Patch levelflow (the imported package ``lf``) at every binding site."""
        from levelflow import (bic, charts, cli, curvature_flow, fields,
                               harmonic, identities, jets, levelsets,
                               quadrature, sampling)
        modules = [lf, bic, charts, cli, curvature_flow, fields, harmonic,
                   identities, jets, levelsets, quadrature, sampling]
        funcs: dict[int, object] = {}

        def fn_wrap(module, name, key, before=None):
            orig = getattr(module, name)
            funcs[id(orig)] = (orig, self._wrap(key, orig, before))

        def count(key, n):
            self.counts[key] += n

        # jets
        self._patch_mul(jets.Taylor2)
        for name in ("log", "exp", "powf", "sqrt", "atan", "sin", "cos",
                     "cosh", "sinh"):
            fn_wrap(jets, name, "jets.elementary")
        fn_wrap(jets, "holomorphic_jet", "jets.holomorphic")

        # fields: every public ScalarField evaluation
        def on_jet(args, kwargs):
            self.jet_calls += 1
            count("fields.jet.points", _rows(args[1]))

        for name in ("jet", "value", "gradient", "hessian", "laplacian"):
            orig = fields.ScalarField.__dict__[name]
            self._set(fields.ScalarField, name, self._wrap("fields.jet", orig, on_jet))

        # charts
        def on_chart(args, kwargs):
            if len(args) > 1:
                count("charts.points", _rows(args[1]))

        def on_warp(args, kwargs):
            count("charts.points", int(np.size(args[1])))

        for cls in (charts.ConformalChart, charts.WarpedChart):
            for name in ("check_points", "conf", "gauss_curvature",
                         "grad_gauss_curvature", "christoffels", "point_data"):
                if name in cls.__dict__:
                    self._set(cls, name, self._wrap("charts", cls.__dict__[name],
                                                    on_chart))
        self._set(charts.WarpedChart, "warp_jet",
                  self._wrap("charts", charts.WarpedChart.__dict__["warp_jet"], on_warp))
        for name in ("gauss_curvature", "grad_gauss_curvature"):
            fn_wrap(charts, name, "charts", on_chart)

        def on_gradient_norm(args, kwargs):
            count("charts.points", _rows(args[2]))

        fn_wrap(charts, "metric_gradient_norm", "charts", on_gradient_norm)
        for name in ("flat_factor", "sphere_cap_factor", "stereographic_sphere_factor"):
            fn_wrap(charts, name, "charts")

        # identities
        def on_identity(args, kwargs):
            count("identities.points", _rows(args[2] if len(args) > 2 else kwargs["p"]))

        for name in ("kato_residual", "bochner_residual", "log_gradient_residual"):
            fn_wrap(identities, name, "identities", on_identity)

        # harmonic (field construction)
        for name in ("catalog_field", "solve_annulus_dirichlet", "critical_points",
                     "solve_annulus_numeric"):
            fn_wrap(harmonic, name, "harmonic")

        # levelsets
        fn_wrap(levelsets, "level_radius", "levelsets.level_radius")

        def on_extract(args, kwargs):
            u = args[0] if args else kwargs["u"]
            if not u.radial:
                count("levelsets.extract_level_curve.traced_calls", 1)

        fn_wrap(levelsets, "extract_level_curve", "levelsets.extract_level_curve",
                on_extract)

        def on_profile(args, kwargs):
            grid = _arg(levelsets.length_profile, args, kwargs, "t_grid", 2)
            count("levelsets.length_profile.levels", int(np.size(grid)))

        fn_wrap(levelsets, "length_profile", "levelsets.length_profile", on_profile)
        for name in ("log_convexity_check", "sharp_bound_gap", "pinched_bound_check",
                     "asymptotic_defect"):
            fn_wrap(levelsets, name, "levelsets.bound_checks")
        for name in ("length", "dlength_integral", "d2length_integral",
                     "boundary_values", "inset_grid", "second_divided_differences"):
            fn_wrap(levelsets, name, "levelsets.other")

        # quadrature: rules count their integrand evaluations and levels
        for name in ("periodic_trapezoid", "tanh_sinh"):
            funcs[id(getattr(quadrature, name))] = (
                getattr(quadrature, name), self._rule_wrapper(quadrature, name))
        fn_wrap(quadrature, "segmented_circle_integral", "quadrature.segmented")

        # curvature_flow
        for name in ("pde1_residual", "pde1_star_residual", "pde2_gap", "pde2_star_gap"):
            fn_wrap(curvature_flow, name, "curvature_flow.pde")

        audit = curvature_flow.principle_audit

        def on_audit(args, kwargs):
            nr, nt = _arg(audit, args, kwargs, "n_interior", 5)
            nb = _arg(audit, args, kwargs, "n_boundary", 6)
            count("curvature_flow.audit.grid_points", int(nr) * int(nt) + 2 * int(nb))

        fn_wrap(curvature_flow, "principle_audit", "curvature_flow.audit", on_audit)
        fn_wrap(curvature_flow, "logL_slope_bound", "curvature_flow.slope_bound")
        for name in ("level_curvature_k", "steepest_descent_curvature_h",
                     "curvature_sample", "fd_laplacian0", "fd_gradient0",
                     "metric_laplacian_fd"):
            fn_wrap(curvature_flow, name, "curvature_flow.other")

        # bic
        fn_wrap(bic, "conical_circle_length", "bic.circle_length")
        fn_wrap(bic, "bic_length_profile", "bic.profile")
        for name in ("conical_factor", "mollify", "mollified_convergence"):
            fn_wrap(bic, name, "bic.other")
        self._set(bic.MollifiedFactor, "circle_length",
                  self._wrap("bic.mollified_circle_length",
                             bic.MollifiedFactor.__dict__["circle_length"]))
        for cls, name in ((bic.MollifiedFactor, "value"), (bic.ConicalFactor, "value"),
                          (bic.ConicalFactor, "curvature_measure")):
            self._set(cls, name, self._wrap("bic.other", cls.__dict__[name]))

        # sampling and the CLI entry point
        fn_wrap(sampling, "quasi_random_points", "sampling")
        fn_wrap(cli, "run", "cli.run")

        # every module attribute bound to a wrapped function, under any name
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = funcs.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

    def _patch_mul(self, Taylor2):
        orig = Taylor2.__dict__["__mul__"]
        tracer = self
        mul_id, scale_id = self.key_id("jets.mul"), self.key_id("jets.scale")
        counts = self.counts

        def mul(a, b):
            if isinstance(b, Taylor2):
                n = max(a.c.size, b.c.size) // JET_COEFFS
                counts["jets.mul.points"] += n
                if n == 1:
                    counts["jets.mul.scalar"] += 1
                return tracer.call(mul_id, orig, (a, b))
            return tracer.call(scale_id, orig, (a, b))

        mul.__wrapped__ = orig
        self._set(Taylor2, "__mul__", mul)
        self._set(Taylor2, "__rmul__", mul)

    def _rule_wrapper(self, quadrature, name):
        orig = getattr(quadrature, name)
        sig = inspect.signature(orig)
        tracer = self
        rule_id, integrand_id = self.key_id("quadrature.rule"), self.key_id("integrand")

        def rule(f, *args, **kwargs):
            levels = [0]

            def counted(x, *rest):
                # the integrand is the caller's work (bic's e^v, a chart factor)
                levels[0] += 1
                tracer.counts["quadrature.nodes"] += int(np.size(x))
                return tracer.call(integrand_id, f, (x,) + rest)

            try:
                return tracer.call(rule_id, orig, (counted,) + args, kwargs)
            finally:
                bound = sig.bind(f, *args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                if name == "tanh_sinh":
                    cap = a["max_level"] + 1
                else:
                    cap = int(np.floor(np.log2(a["max_n"] / a["n0"]))) + 1
                tracer.counts["quadrature.levels"] += levels[0]
                if levels[0] >= cap:
                    tracer.counts["quadrature.capped"] += 1

        rule.__wrapped__ = orig
        return rule

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics (name -> value) from the recorded spans.

        ``fields.jet.redundancy`` divides the jet points evaluated inside the
        checks that name their points by the number of points they name
        (counts ``bench.requested_*``, kept by the caller).
        """
        st, calls, cnt = self.self_time, self.calls, self.counts
        jets_in = dict(zip(self.keys, self._jets))
        incl = dict(zip(self.layers, self._incl))
        check_s = incl.get("bench", 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        def share(seconds):
            # self times are shares of the traced check time: a layer a
            # workload never enters reads 0 rather than a 0 s "time", and
            # shares do not swing with the host's speed
            return ratio(seconds, check_s)

        def layer_self(layer):
            return float(sum(v for k, v in st.items() if k.split(".")[0] == layer))

        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_frac"] = share(layer_self(layer))
            m[f"{layer}.incl_frac"] = ratio(incl.get(layer, 0.0), check_s)

        mul_calls, mul_points = calls["jets.mul"], cnt["jets.mul.points"]
        m.update({
            "jets.mul.calls": mul_calls,
            "jets.mul.points": mul_points,
            "jets.mul.self_frac": share(st["jets.mul"]),
            "jets.mul.scalar_frac": ratio(cnt["jets.mul.scalar"], mul_calls),
            "jets.mul.ops": MUL_PRODUCTS_PER_POINT * mul_points,
            "jets.mul.bytes": MUL_BYTES_PER_POINT * mul_points,
            "jets.scale.calls": calls["jets.scale"],
            "jets.elementary.calls": calls["jets.elementary"],
            "jets.holomorphic.calls": calls["jets.holomorphic"],
            "fields.jet.calls": calls["fields.jet"],
            "fields.jet.points": cnt["fields.jet.points"],
            "fields.jet.self_frac": share(st["fields.jet"]),
            "fields.jet.redundancy": ratio(cnt["bench.requested_jet_points"],
                                           cnt["bench.requested_points"]),
            "charts.calls": calls["charts"],
            "charts.points": cnt["charts.points"],
            "identities.calls": calls["identities"],
            "identities.points": cnt["identities.points"],
            "harmonic.calls": calls["harmonic"],
        })
        for key in ("levelsets.level_radius", "levelsets.extract_level_curve"):
            m[key + ".calls"] = calls[key]
            m[key + ".self_frac"] = share(st[key])
            m[key + ".jets_per_call"] = ratio(jets_in.get(key, 0), calls[key])
        rule_calls = calls["quadrature.rule"]
        m.update({
            "levelsets.extract_level_curve.traced_calls":
                cnt["levelsets.extract_level_curve.traced_calls"],
            "levelsets.length_profile.levels": cnt["levelsets.length_profile.levels"],
            "levelsets.length_profile.self_frac": share(st["levelsets.length_profile"]),
            "levelsets.bound_checks.calls": calls["levelsets.bound_checks"],
            "levelsets.bound_checks.self_frac": share(st["levelsets.bound_checks"]),
            "quadrature.calls": rule_calls,
            "quadrature.nodes": cnt["quadrature.nodes"],
            "quadrature.levels_per_call": ratio(cnt["quadrature.levels"], rule_calls),
            "quadrature.capped": cnt["quadrature.capped"],
            "curvature_flow.pde.calls": calls["curvature_flow.pde"],
            "curvature_flow.pde.self_frac": share(st["curvature_flow.pde"]),
            "curvature_flow.pde.jets_per_call": ratio(jets_in.get("curvature_flow.pde", 0),
                                                      calls["curvature_flow.pde"]),
            "curvature_flow.audit.calls": calls["curvature_flow.audit"],
            "curvature_flow.audit.self_frac": share(st["curvature_flow.audit"]),
            "curvature_flow.audit.grid_points": cnt["curvature_flow.audit.grid_points"],
            "curvature_flow.slope_bound.self_frac": share(st["curvature_flow.slope_bound"]),
            "bic.circle_length.calls": calls["bic.circle_length"],
            "bic.circle_length.self_frac": share(st["bic.circle_length"]),
            "bic.profile.self_frac": share(st["bic.profile"]),
            "cli.run.calls": calls["cli.run"],
            "cli.run.self_frac": share(st["cli.run"]),
            "cli.bytes_written": cnt["cli.bytes_written"],
            "bench.check_s": check_s,
            "bench.self_frac": share(st["bench.check"]),
            "trace.spans": len(self.span_key),
        })
        return m

    def counters(self) -> dict:
        """Deterministic work counters: calls, points, nodes, levels, capped."""
        out = {f"calls.{k}": v for k, v in sorted(self.calls.items())}
        out.update({f"jets_in.{k}": v for k, v in sorted(zip(self.keys, self._jets))})
        out.update({f"count.{k}": v for k, v in sorted(self.counts.items())})
        return out

    def save(self, path) -> None:
        """Write every recorded span (one row per call) to ``path`` (.npz)."""
        np.savez(path, keys=np.array(self.keys),
                 key=np.frombuffer(self.span_key, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 check=np.frombuffer(self.span_check, dtype=np.int64),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
