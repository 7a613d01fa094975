"""Timing wrappers around the public calls into each conewave module, and
the arithmetic that turns their spans into per-layer metrics.

A span is a list `[name, start_ns, end_ns, parent, run_id, attrs]`; `parent`
is the index of the enclosing span or -1, and `attrs` holds the counts taken
from the call's arguments and returned object. Spans stay in memory and are
written out once the run ends.

Wrapping replaces every binding of a target in the loaded `conewave.*`
modules, so names imported with `from .quadrature import integrate_bulk` are
traced as well as the module attribute. A target absent at some commit is
listed in `Tracer.missing` instead of failing the run, so one benchmark
serves parent and child commits alike.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

from stats import percentile


def _tr_points(offset):
    """Counter of evaluation points for a call shaped f(..., t, r, ...) with
    t at position `offset` (bound methods count `self` as position 0)."""
    def count(args, kwargs, result):
        t = args[offset] if len(args) > offset else kwargs["t"]
        r = args[offset + 1] if len(args) > offset + 1 else kwargs["r"]
        return {"points": int(np.broadcast(t, r).size)}
    return count


def _run_result(args, kwargs, result):
    cfg = result.config
    cells = cfg.J + 1
    attrs = {"steps": int(result.steps), "cells": int(cells),
             "cell_steps": int(result.steps) * int(cells),
             "energy_samples": int(len(result.energy))}
    if result.t_blowup is not None and result.dt > 0:
        attrs["steps_from_t_b"] = int(round((result.t_blowup - cfg.t0)
                                            / result.dt))
    return attrs


def _snapshots(args, kwargs, result):
    return {"files": len(result),
            "bytes": int(sum(os.path.getsize(path) for path in result))}


def _quadrature_result(args, kwargs, result):
    return {"nodes": int(result.nodes_used)}


def _carleman_report(args, kwargs, result):
    return {"nontrivial": int(result.lhs_bulk > 0.0)}


# (span name, module, attribute path, counter)
TARGETS = (
    ("cli.run", "conewave.cli", "run", None),
    ("cli.parse", "conewave.cli", "parse_config", None),
    ("solver.evolve", "conewave.solver", "evolve", _run_result),
    ("solver.power_iter", "conewave.solver", "_operator_norm", None),
    ("solver.finite_speed", "conewave.solver", "finite_speed_check", None),
    ("fields.snapshot_write", "conewave.fields",
     "DiscreteField.write_snapshots", _snapshots),
    ("fields.discrete_eval", "conewave.fields", "DiscreteField.value",
     _tr_points(1)),
    ("fields.discrete_eval", "conewave.fields", "DiscreteField.value_t",
     _tr_points(1)),
    ("fields.discrete_eval", "conewave.fields", "DiscreteField.value_r",
     _tr_points(1)),
    ("fields.manufactured_eval", "conewave.fields", "ManufacturedField.value",
     _tr_points(1)),
    ("fields.manufactured_eval", "conewave.fields",
     "ManufacturedField.value_t", _tr_points(1)),
    ("fields.manufactured_eval", "conewave.fields",
     "ManufacturedField.value_r", _tr_points(1)),
    ("fields.manufactured_eval", "conewave.fields",
     "ManufacturedField.box_at", _tr_points(1)),
    ("fields.potential_eval", "conewave.fields", "PotentialSpec.value", None),
    ("fields.potential_eval", "conewave.fields", "PotentialSpec.gradient",
     None),
    ("quadrature.bulk", "conewave.quadrature", "integrate_bulk",
     _quadrature_result),
    ("quadrature.profile", "conewave.quadrature", "integrate_profile",
     _quadrature_result),
    ("quadrature.slice", "conewave.quadrature", "integrate_slice",
     _quadrature_result),
    ("quadrature.surface", "conewave.quadrature", "integrate_surface",
     _quadrature_result),
    ("carleman.verify_global", "conewave.carleman", "verify_global",
     _carleman_report),
    ("carleman.flux", "conewave.carleman", "flux_covector", _tr_points(2)),
    ("carleman.bulk_gamma", "conewave.carleman", "bulk_gamma", None),
    ("carleman.region_build", "conewave.carleman", "box_region", None),
    ("carleman.region_build", "conewave.carleman", "frustum_region", None),
    ("carleman.region_build", "conewave.carleman", "clipped_exterior_region",
     None),
    ("carleman.region_build", "conewave.carleman", "level_shell_region", None),
    ("carleman.inverted_frustum", "conewave.carleman",
     "inverted_frustum_region", None),
    ("geometry.weight", "conewave.geometry", "ShiftedWeight.value_radial",
     _tr_points(1)),
    ("geometry.weight", "conewave.geometry", "ShiftedWeight.grad_radial",
     _tr_points(1)),
    ("exact_solutions.data_eval", "conewave.exact_solutions",
     "InitialDataSpec.evaluate", None),
    ("energetics.profile", "conewave.energetics", "energy_profile", None),
    ("energetics.annulus", "conewave.energetics", "annulus_quantity", None),
    ("energetics.slab", "conewave.energetics", "slab_quantity", None),
    ("energetics.lp_slab", "conewave.energetics", "lp_slab_quantity", None),
    ("energetics.lateral", "conewave.energetics", "lateral_quantity", None),
    ("energetics.ball", "conewave.energetics", "weighted_ball_quantity", None),
    ("energetics.localized", "conewave.energetics",
     "localized_estimate_check", None),
    ("energetics.decay", "conewave.energetics", "decay_partials", None),
    ("energetics.rate_fit", "conewave.energetics", "rate_fit", None),
)


class Tracer:
    """Records spans of the wrapped calls in one process."""

    def __init__(self, run_id=0):
        self.run_id = run_id
        self.spans = []
        self.missing = []
        self._stack = []
        self._quadrature_depth = 0
        self._undo = []

    def wrap(self, name, fn, count=None, integrand_index=None):
        """A function that calls `fn` inside a span called `name`.

        `count(args, kwargs, result)` returns the span's attrs. With
        `integrand_index` set (quadrature entry points), the outermost
        quadrature call also counts the points its integrand is evaluated
        on, to reconcile with `QuadratureResult.nodes_used`.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        run_id = self.run_id
        is_quadrature = integrand_index is not None

        def wrapper(*args, **kwargs):
            outer_quadrature = is_quadrature and self._quadrature_depth == 0
            points = [0]
            if outer_quadrature and integrand_index >= 0:
                args, kwargs = _count_integrand(args, kwargs, integrand_index,
                                                points)
            span = [name, 0, 0, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(span)
            if is_quadrature:
                self._quadrature_depth += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[5] = {"raised": type(exc).__name__}
                raise
            finally:
                stack.pop()
                if is_quadrature:
                    self._quadrature_depth -= 1
            span[2] = clock()
            attrs = {}
            if count is not None:
                try:
                    attrs = count(args, kwargs, result)
                except (AttributeError, KeyError, TypeError) as exc:
                    note = f"{name} counts: {type(exc).__name__}: {exc}"
                    if note not in self.missing:
                        self.missing.append(note)
            if is_quadrature:
                attrs["outer"] = int(outer_quadrature)
                if outer_quadrature and integrand_index >= 0:
                    attrs["integrand_points"] = points[0]
            span[5] = attrs or None
            return result

        return wrapper

    def install(self, targets=TARGETS):
        """Wrap every target; absent ones go to `self.missing`."""
        for module_name in sorted({target[1] for target in targets}):
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "conewave" or key.startswith("conewave.")]
        for name, module_name, path, count in targets:
            owner_name, _, attr = path.rpartition(".")
            owner = sys.modules.get(module_name)
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if not inspect.isfunction(raw):
                self.missing.append(f"{module_name}.{path}")
                continue
            integrand_index = None
            if name.startswith("quadrature."):
                params = list(inspect.signature(raw).parameters)
                integrand_index = (params.index("integrand")
                                   if "integrand" in params else -1)
                if integrand_index < 0:
                    self.missing.append(f"{module_name}.{path}(integrand)")
            wrapper = self.wrap(name, raw, count, integrand_index)
            if owner_name:
                self._replace(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._replace(mod, key, wrapper)

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _count_integrand(args, kwargs, index, points):
    def counted(*a):
        points[0] += int(np.broadcast(*a).size)
        return integrand(*a)

    if len(args) > index:
        integrand = args[index]
        args = args[:index] + (counted,) + args[index + 1:]
    else:
        integrand = kwargs["integrand"]
        kwargs = dict(kwargs, integrand=counted)
    return args, kwargs


# --------------------------------------------------------------------------
# Span arithmetic
# --------------------------------------------------------------------------

def self_times(spans):
    """Duration of each span minus the part of it its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, reach = 0, start
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_self_times(spans):
    """Self time in seconds of each layer (the span-name prefix)."""
    out = defaultdict(float)
    for span, self_ns in zip(spans, self_times(spans)):
        out[span[0].split(".", 1)[0]] += self_ns * 1e-9
    return dict(out)


def _outermost(spans, same):
    """Flags spans with no ancestor for which `same(ancestor, span)` holds."""
    flags = []
    for span in spans:
        parent, keep = span[3], True
        while parent >= 0:
            if same(spans[parent], span):
                keep = False
                break
            parent = spans[parent][3]
        flags.append(keep)
    return flags


def layer_metrics(spans):
    """Per-layer metrics of one traced repetition.

    Inclusive times and counts take only the outermost span of each name
    (of the whole layer, for quadrature), so a call nested in another of its
    kind is not counted twice. Self times take every span.
    """
    selfs = self_times(spans)
    outer = _outermost(spans, lambda a, b: a[0] == b[0])
    outer_quad = _outermost(
        spans, lambda a, b: a[0].startswith("quadrature.")
        and b[0].startswith("quadrature."))
    incl = defaultdict(float)
    self_by_name = defaultdict(float)
    calls = defaultdict(int)
    sums = defaultdict(float)
    raised = defaultdict(int)
    case_ms = []
    mismatches = []
    for idx, span in enumerate(spans):
        name, attrs = span[0], span[5] or {}
        self_by_name[name] += selfs[idx] * 1e-9
        is_quad = name.startswith("quadrature.")
        if not (outer_quad[idx] if is_quad else outer[idx]):
            continue
        dur = (span[2] - span[1]) * 1e-9
        incl[name] += dur
        calls[name] += 1
        if "raised" in attrs:
            raised[name] += 1
        for key, value in attrs.items():
            if key != "raised":
                sums[f"{name}:{key}"] += value
        if name == "carleman.verify_global":
            case_ms.append(dur * 1e3)
        if is_quad and "integrand_points" in attrs and "nodes" in attrs \
                and attrs["integrand_points"] != attrs["nodes"]:
            mismatches.append(f"{name}: nodes_used {attrs['nodes']} != "
                              f"integrand points {attrs['integrand_points']}")
        if "steps_from_t_b" in attrs and attrs["steps_from_t_b"] != attrs["steps"]:
            mismatches.append(f"{name}: steps {attrs['steps']} != "
                              f"(t_b - t0) / dt = {attrs['steps_from_t_b']}")

    def layer_self(prefix):
        return sum(v for k, v in self_by_name.items() if k.startswith(prefix))

    def rate(count, seconds, scale=1.0):
        return count * scale / seconds if seconds > 0 else 0.0

    quad_names = ("quadrature.bulk", "quadrature.profile", "quadrature.slice",
                  "quadrature.surface")
    quad_incl = sum(incl[n] for n in quad_names)
    nodes = sum(sums[f"{n}:nodes"] for n in quad_names)
    discrete_pts = sums["fields.discrete_eval:points"]
    manufactured_pts = sums["fields.manufactured_eval:points"]
    metrics = {
        "solver.evolve_s": self_by_name["solver.evolve"],
        "solver.ns_per_cell_step": rate(incl["solver.evolve"],
                                        sums["solver.evolve:cell_steps"], 1e9),
        "solver.steps": sums["solver.evolve:steps"],
        "solver.cells": sums["solver.evolve:cells"],
        "solver.energy_samples": sums["solver.evolve:energy_samples"],
        "solver.power_iter_s": incl["solver.power_iter"],
        "solver.finite_speed_s": incl["solver.finite_speed"],
        "fields.snapshot_write_s": incl["fields.snapshot_write"],
        "fields.snapshot_bytes": sums["fields.snapshot_write:bytes"],
        "fields.snapshot_files": sums["fields.snapshot_write:files"],
        "fields.discrete_eval_points": discrete_pts,
        "fields.discrete_eval_s": incl["fields.discrete_eval"],
        "fields.discrete_points_per_s": rate(discrete_pts,
                                             incl["fields.discrete_eval"]),
        "fields.manufactured_eval_points": manufactured_pts,
        "fields.manufactured_eval_s": incl["fields.manufactured_eval"],
        "fields.manufactured_points_per_s": rate(
            manufactured_pts, incl["fields.manufactured_eval"]),
        "fields.potential_eval_s": incl["fields.potential_eval"],
        "quadrature.bulk_calls": calls["quadrature.bulk"],
        "quadrature.profile_calls": calls["quadrature.profile"],
        "quadrature.slice_calls": calls["quadrature.slice"],
        "quadrature.surface_calls": calls["quadrature.surface"],
        "quadrature.nodes": nodes,
        "quadrature.ns_per_node": rate(quad_incl, nodes, 1e9),
        "quadrature.self_s": layer_self("quadrature."),
        "carleman.case_ms_p50": percentile(case_ms, 50),
        "carleman.case_ms_p95": percentile(case_ms, 95),
        "carleman.flux_s": incl["carleman.flux"],
        "carleman.flux_points": sums["carleman.flux:points"],
        "carleman.bulk_gamma_s": incl["carleman.bulk_gamma"],
        "carleman.region_build_s": (incl["carleman.region_build"]
                                    + incl["carleman.inverted_frustum"]),
        "carleman.nontrivial_frac": rate(
            sums["carleman.verify_global:nontrivial"],
            calls["carleman.verify_global"]),
        "carleman.inverted_fallbacks": raised["carleman.inverted_frustum"],
        "geometry.weight_points": sums["geometry.weight:points"],
        "geometry.weight_s": incl["geometry.weight"],
        "exact_solutions.data_eval_s": incl["exact_solutions.data_eval"],
        "energetics.profile_s": incl["energetics.profile"],
        "energetics.slab_s": incl["energetics.slab"],
        "energetics.localized_s": incl["energetics.localized"],
        "energetics.annulus_s": incl["energetics.annulus"],
        "energetics.ball_s": incl["energetics.ball"],
        "energetics.lateral_s": incl["energetics.lateral"],
        "energetics.self_s": layer_self("energetics."),
        "cli.parse_s": incl["cli.parse"],
        "cli.self_s": self_by_name["cli.run"],
    }
    return {k: float(v) for k, v in metrics.items()}, mismatches


def unit(metric):
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_per_s"):
        return "1/s"
    if "_ms_" in metric:
        return "ms"
    if "ns_per_" in metric:
        return "ns"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"
