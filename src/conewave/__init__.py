"""conewave: a numerical laboratory for focusing power-law wave equations.

Simulates blow-up and decay solutions of d_tt phi = Lap phi + V |phi|^{p-1} phi
in radial symmetry, evaluates weighted energy functionals over Minkowski
cones, annuli, and slabs, and verifies the governing weighted inequalities
by deterministic quadrature.
"""

from .geometry import (
    ConeSegmentSpec,
    ExteriorRegionSpec,
    MinkowskiPoint,
    RaySpec,
    ShiftedWeight,
    SlabSpec,
    covering_check,
    eval_weight,
    eval_weight_gradient,
)
from .quadrature import QuadratureResult, QuadratureSpec, integrate_bulk, integrate_surface
from .fields import (
    DiscreteField,
    ManufacturedField,
    PotentialSpec,
    gaussian_pulse,
    ode_field,
)
from .exact_solutions import (
    InitialDataSpec,
    OdeSolution,
    annulus_scaling_constant,
    ball_quantity_ode,
    ode_value,
    slab_scaling_constant,
)
from .carleman import CarlemanParams, CarlemanReport, verify_global, verify_shifted
from .solver import RunResult, SolverConfig, convergence_study, evolve, finite_speed_check
from .energetics import (
    annulus_quantity,
    decay_partials,
    localized_estimate_check,
    weighted_ball_quantity,
    rate_fit,
    slab_quantity,
)

__version__ = "0.1.0"
