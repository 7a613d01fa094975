"""Every exported name resolves, so an export left behind by a deletion
fails here and not in a user's star import; and every library range check
refuses NaN, so a check written `x <= bound`, which NaN passes, fails here
and not in a user's results."""

import ast
import dataclasses
import importlib
import math
import pathlib
import pkgutil
import sys

import numpy as np
import pytest

import conewave
from conewave import (carleman, energetics, exact_solutions, fields, geometry,
                      quadrature, solver)

MODULES = ["conewave"] + [f"conewave.{info.name}"
                          for info in pkgutil.iter_modules(conewave.__path__)]


def test_every_module_is_listed():
    assert {"conewave.carleman", "conewave.cli", "conewave.energetics",
            "conewave.exact_solutions", "conewave.fields", "conewave.geometry",
            "conewave.quadrature", "conewave.solver"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is not None:
        assert len(set(exported)) == len(exported)
        assert [n for n in exported if not hasattr(module, n)] == []
    # the package declares no __all__: its exports are its imports, and a
    # stale one fails the import itself; a star import exercises both forms
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert all(n in namespace for n in exported or ())


@pytest.mark.parametrize("name", [m for m in MODULES if m != "conewave.cli"])
def test_only_cli_exports_csv_writers(name):
    # one writer formats every output file; the library returns numbers
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert [n for n in namespace if "csv" in n.lower()] == []


def test_package_imports_only_numpy_and_the_standard_library():
    # runtime dependencies stay numpy-only: every import statement of every
    # module, function-level ones included
    allowed = set(sys.stdlib_module_names) | {"numpy", "__future__"}
    found = {}
    for path in sorted(pathlib.Path(conewave.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # a relative import stays in the package
            for name in names:
                found.setdefault(name.split(".")[0], set()).add(path.name)
    assert "numpy" in found
    assert {k: sorted(v) for k, v in found.items() if k not in allowed} == {}


def _relative_imports(path):
    """The package modules that `path` imports, function-level imports
    included: `from .x import ...` gives x, `from . import x, y` x and y."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= ({node.module.split(".")[0]} if node.module else
                      {alias.name for alias in node.names})
    return found


def test_the_module_graph_has_no_cycle():
    # before: fields.ode_field imported exact_solutions, which imports fields
    root = pathlib.Path(conewave.__path__[0])
    graph = {path.stem: _relative_imports(path) for path in root.glob("*.py")}
    done, path = set(), []

    def visit(node):
        assert node not in path, " -> ".join(path + [node])
        if node not in done:
            path.append(node)
            for child in sorted(graph.get(node, ())):
                visit(child)
            path.pop()
            done.add(node)

    for node in sorted(graph):
        visit(node)
    assert graph["fields"] == set()  # the field protocol stands alone


NAN = math.nan


def _discrete_field(times=(-1.0, -0.5), r=None, r_limit=None):
    r = np.linspace(0.0, 2.0, 9) if r is None else np.asarray(r)
    zeros = np.zeros((len(times), r.size))
    return fields.DiscreteField(np.asarray(times), r, zeros, zeros, r_limit)


def _solver_config(**changes):
    args = dict(n=3, p=2.0, R=2.0, J=64, cfl=0.9, t0=-1.0, t_end=-0.5,
                phi_max=1e6, snapshot_times=(-0.75,))
    return solver.SolverConfig(**{**args, **changes})


def _covering(sigma=0.5, gamma=1.2, t_star=1.0, eta=None, v1=(-0.1,)):
    return geometry.covering_check(sigma, gamma, t_star, (0.1,), v1, eta=eta)


def _ode():
    return exact_solutions.ode_field(2.0, 3)


def _profile(times=(-0.5,), gamma=1.2, eta=2.0):
    return energetics.energy_profile(_ode(), 0.25, 0.5, gamma, eta, times,
                                     2.0, 3)


def _localized(gamma=1.2, eta=2.0, t_star=-0.5):
    return energetics.localized_estimate_check(_ode(), 0.25, 0.5, gamma, eta,
                                               t_star, 2.0, 3)


def _nan(call, match, name):
    return pytest.param(call, match, id=name)


# (call with one argument NaN and every other valid, the refusal it must
# raise): each argument that a range check reads in a constructor of
# geometry, carleman, quadrature, fields, solver or exact_solutions, and in
# the argument checks of energetics and covering_check. Where a check that
# reads the argument lets NaN on to a later one (the decay horizons), the
# row names the later refusal.
NAN_ARGUMENTS = [
    _nan(lambda: geometry.ConeSegmentSpec(NAN, 0.5, 1.0),
         "cone aperture must lie", "ConeSegmentSpec.sigma"),
    _nan(lambda: geometry.ConeSegmentSpec(0.5, NAN, 1.0),
         "need t_lo < t_hi", "ConeSegmentSpec.t_lo"),
    _nan(lambda: geometry.ConeSegmentSpec(0.5, 0.5, NAN),
         "need t_lo < t_hi", "ConeSegmentSpec.t_hi"),
    _nan(lambda: geometry.ExteriorRegionSpec(NAN, 1.0),
         "cone aperture must lie", "ExteriorRegionSpec.sigma"),
    _nan(lambda: geometry.ExteriorRegionSpec(0.5, NAN),
         "exterior region requires", "ExteriorRegionSpec.t_star"),
    _nan(lambda: geometry.ExteriorRegionSpec(0.5, 1.0).level_set(NAN),
         "eps too large", "ExteriorRegionSpec.level_set.eps"),
    _nan(lambda: geometry.TimeSlicePiece(NAN, 0.0, 1.0),
         "^slice level must be finite", "TimeSlicePiece.level"),
    _nan(lambda: geometry.TimeSlicePiece(0.3, NAN, 1.0), "degenerate slice",
         "TimeSlicePiece.r_lo"),
    _nan(lambda: geometry.TimeSlicePiece(0.3, 0.0, NAN), "degenerate slice",
         "TimeSlicePiece.r_hi"),
    _nan(lambda: geometry.CylinderPiece(NAN, 0.0, 1.0), "degenerate cylinder",
         "CylinderPiece.r0"),
    _nan(lambda: geometry.CylinderPiece(1.0, NAN, 1.0), "degenerate cylinder",
         "CylinderPiece.t_lo"),
    _nan(lambda: geometry.CylinderPiece(1.0, 0.0, NAN), "degenerate cylinder",
         "CylinderPiece.t_hi"),
    _nan(lambda: geometry.ConePiece(NAN, 0.0, 1.0), "slope must lie",
         "ConePiece.slope"),
    _nan(lambda: geometry.ConePiece(0.5, NAN, 1.0), "degenerate cone piece",
         "ConePiece.t_lo"),
    _nan(lambda: geometry.ConePiece(0.5, 0.0, NAN), "degenerate cone piece",
         "ConePiece.t_hi"),
    _nan(lambda: geometry.ConePiece(0.5, 0.0, 1.0, NAN),
         "apex time must be finite", "ConePiece.t_apex"),
    _nan(lambda: geometry.LevelSetPiece(geometry.ShiftedWeight(1.0), NAN,
                                        0.8, 1.2),
         "level value must be positive", "LevelSetPiece.eps"),
    _nan(lambda: geometry.LevelSetPiece(geometry.ShiftedWeight(1.0), 0.01,
                                        NAN, 1.2),
         "degenerate level piece", "LevelSetPiece.t_lo"),
    _nan(lambda: geometry.LevelSetPiece(geometry.ShiftedWeight(1.0), 0.01,
                                        0.8, NAN),
         "degenerate level piece", "LevelSetPiece.t_hi"),
    _nan(lambda: _covering(t_star=NAN), r"requires t\* > 0",
         "covering_check.t_star"),
    _nan(lambda: _covering(sigma=NAN), r"aperture must lie in \(0, 1\)",
         "covering_check.sigma"),
    _nan(lambda: _covering(v1=(0.0, NAN)), "rays must lie inside the cone",
         "covering_check.v1"),
    _nan(lambda: _covering(gamma=NAN), "gamma must be a number",
         "covering_check.gamma"),
    _nan(lambda: _covering(eta=NAN), "eta must exceed 1",
         "covering_check.eta"),
    _nan(lambda: carleman.CarlemanParams(NAN, 2.0, 3), "a must be positive",
         "CarlemanParams.a"),
    _nan(lambda: carleman.CarlemanParams(0.25, NAN, 3), "satisfy p >= 1",
         "CarlemanParams.p"),
    _nan(lambda: carleman.CarlemanParams(0.25, 2.0, NAN),
         "dimension must be >= 1", "CarlemanParams.n"),
    _nan(lambda: quadrature.QuadratureSpec(NAN), "^cells must be at least 4",
         "QuadratureSpec.cells"),
    _nan(lambda: quadrature.QuadratureSpec(48, NAN),
         "^grading_exponent must be at least 1",
         "QuadratureSpec.grading_exponent"),
    _nan(lambda: quadrature.QuadratureResult(1.0, NAN, 8),
         "error estimate must be >= 0", "QuadratureResult.error_estimate"),
    _nan(lambda: fields.PotentialSpec(NAN), "^c0 must be",
         "PotentialSpec.c0"),
    _nan(lambda: fields.PotentialSpec(1.0, NAN), "destroys positivity",
         "PotentialSpec.eps"),
    _nan(lambda: fields.PotentialSpec(1.0, 0.0, (NAN, 0.0)),
         r"^center\[0\] must be", "PotentialSpec.center0"),
    _nan(lambda: fields.PotentialSpec(1.0, 0.0, (0.0, NAN)),
         r"^center\[1\] must be", "PotentialSpec.center1"),
    _nan(lambda: fields.PotentialSpec(1.0, 0.0, (0.0, 0.0), NAN),
         "^width must be", "PotentialSpec.width"),
    _nan(lambda: _discrete_field(times=(-1.0, NAN)), "strictly increasing",
         "DiscreteField.times"),
    _nan(lambda: _discrete_field(r=[0.0, 0.25, NAN, 0.75, 1.0]),
         "must be uniform", "DiscreteField.r"),
    _nan(lambda: _discrete_field(r_limit=np.array([2.0, NAN])),
         "r_limit must hold", "DiscreteField.r_limit"),
] + [
    _nan(lambda name=name: _solver_config(**{name: NAN}), f"^{name} must be",
         f"SolverConfig.{name}")
    for name in ("n", "p", "R", "J", "cfl", "t0", "t_end", "phi_max")
] + [
    _nan(lambda: _solver_config(snapshot_times=(NAN,)),
         "^snapshot_times must be", "SolverConfig.snapshot_times"),
    _nan(lambda: exact_solutions.OdeSolution(NAN), "satisfy p > 1",
         "OdeSolution.p"),
    _nan(lambda: exact_solutions.OdeSolution(2.0).value(NAN),
         r"phi\* is defined for t < 0", "OdeSolution.value.t"),
    _nan(lambda: exact_solutions.OdeSolution(2.0).dvalue(NAN),
         r"phi\* is defined for t < 0", "OdeSolution.dvalue.t"),
    _nan(lambda: exact_solutions.OdeSolution(2.0).threshold_crossing(NAN),
         "level must be positive", "OdeSolution.threshold_crossing.level"),
    _nan(lambda: exact_solutions.slab_scaling_constant(2.0, 3, 0.25, NAN),
         "gamma must exceed 1", "slab_scaling_constant.gamma"),
    _nan(lambda: exact_solutions.slab_scaling_constant(2.0, 3, NAN, 1.2),
         "need 0 < sigma0 < 1", "slab_scaling_constant.sigma0"),
    _nan(lambda: exact_solutions.InitialDataSpec.truncated_ode(NAN, 0.25),
         "truncation needs", "InitialDataSpec.truncated_ode.M"),
    _nan(lambda: exact_solutions.InitialDataSpec.truncated_ode(2.0, NAN),
         "truncation needs", "InitialDataSpec.truncated_ode.w"),
    _nan(lambda: exact_solutions.InitialDataSpec.gaussian(NAN, 0.3),
         "^amplitude must be", "InitialDataSpec.gaussian.amplitude"),
    _nan(lambda: exact_solutions.InitialDataSpec.gaussian(1.0, NAN),
         "^width must be", "InitialDataSpec.gaussian.width"),
    _nan(lambda: energetics.annulus_quantity(_ode(), 0.25, 0.5, [NAN], 2.0,
                                             3),
         "annulus quantity undefined", "annulus_quantity.t"),
    _nan(lambda: energetics.slab_quantity(_ode(), 0.25, NAN, -0.5, 2.0, 3),
         "gamma must exceed 1", "slab_quantity.gamma"),
    _nan(lambda: energetics.slab_quantity(_ode(), 0.25, 1.2, NAN, 2.0, 3),
         "slab center time must be nonzero", "slab_quantity.t_star"),
    _nan(lambda: energetics.lateral_quantity(_ode(), 0.25, NAN, -0.5, 2.0,
                                             3),
         "eta must exceed 1", "lateral_quantity.eta"),
    _nan(lambda: energetics.lateral_quantity(_ode(), 0.25, 2.0, NAN, 2.0, 3),
         "lateral center time must be a number", "lateral_quantity.t_star"),
    _nan(lambda: energetics.weighted_ball_quantity(_ode(), [NAN], 2.0, 3),
         "ball quantity requires t < 0", "weighted_ball_quantity.t"),
    _nan(lambda: _localized(gamma=NAN), "gamma must exceed 1",
         "localized_estimate_check.gamma"),
    _nan(lambda: _localized(eta=NAN), "^eta must exceed 1$",
         "localized_estimate_check.eta"),
    _nan(lambda: _localized(t_star=NAN), "slab center time must be nonzero",
         "localized_estimate_check.t_star"),
    _nan(lambda: _profile(times=(NAN,)), "annulus quantity undefined",
         "energy_profile.times"),
    _nan(lambda: _profile(gamma=NAN), "gamma must exceed 1",
         "energy_profile.gamma"),
    _nan(lambda: _profile(eta=NAN), "eta must exceed 1",
         "energy_profile.eta"),
    _nan(lambda: energetics.decay_partials(_ode(), 0.5, (2.0, NAN), 2.0, 3),
         "need t_lo < t_hi", "decay_partials.horizons"),
    _nan(lambda: energetics.rate_fit([-1.0, -0.5, -0.25], [1.0, NAN, 3.0]),
         "requires positive samples", "rate_fit.values"),
]


@pytest.mark.parametrize("call,match", NAN_ARGUMENTS)
def test_a_nan_argument_is_refused(call, match):
    with pytest.raises(ValueError, match=match):  # ArgumentError too
        call()


# float fields of the public dataclasses that no NaN row covers, each with
# the reason it needs none
NAN_EXEMPT = {
    "ShiftedWeight.t_star": "any t* is a weight centre; a NaN one makes "
                            "every weight value NaN, which quadrature "
                            "refuses as a non-finite sample",
    "InitialDataSpec.support_radius": "set by the family builders from the "
                                      "arguments they check",
    **dict.fromkeys(
        ["CarlemanReport." + name for name in
         ("lhs_bulk", "rhs_bulk", "rhs_boundary", "slack", "tolerance")]
        + ["ShiftedReport.lhs", "ShiftedReport.ratio", "QuadratureResult.value",
           "RunResult.t_blowup", "RunResult.dt", "RunResult.max_phi"],
        "a result the library computes, not an argument"),
}


def _float_fields():
    """`Class.field` for each float-typed field of the public dataclasses
    of the modules the NaN table covers."""
    for module in (geometry, fields, carleman, quadrature, solver,
                   exact_solutions):
        for name in module.__all__:
            obj = getattr(module, name)
            if isinstance(obj, type) and dataclasses.is_dataclass(obj):
                yield from (f"{name}.{f.name}" for f in dataclasses.fields(obj)
                            if "float" in str(f.type).split(" | "))


def test_every_float_field_has_a_nan_row_or_an_exemption():
    # a new float field fails here until a check refuses NaN in it
    rows = {param.id for param in NAN_ARGUMENTS}
    found = set(_float_fields())
    assert sorted(found - rows - NAN_EXEMPT.keys()) == []
    assert sorted(NAN_EXEMPT.keys() - found) == []  # none stale
    assert sorted(NAN_EXEMPT.keys() & rows) == []
