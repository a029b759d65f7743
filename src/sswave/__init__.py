"""Numerical laboratory for self-similar blow-up of the superconformal
semilinear wave equation: radial solver, similarity transform, the full
battery of weighted energy functionals, and identity/monotonicity checks."""

from .core import (Exponents, FunctionalSeries, PhysicalState, RadialGrid,
                   kappa, kappa_value, make_exponents)
from .quadrature import (BallQuadrature, RuleTable, ball_volume,
                         ball_weight_volume, build_rule, grad_decompose,
                         integrate, sphere_rule, surface_area)
from .ode import BlowupFit, FitError, OdeTrajectory, fit_blowup, ode_exact, ode_integrate
from .solver import (SolverConfig, SolverError, Trajectory, initial_state,
                     run_until_blowup, step)
from .similarity import (PolyField, SimilaritySnapshot, StaticSnapshot, TestField,
                         constant_field, harmonic_poly, to_similarity, trajectory_to_w)
from .verify import hardy_ratio
from . import functionals, verify

__version__ = "0.1.0"
