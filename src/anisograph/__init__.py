"""Anisotropic minimal graphs over a truncated half-space.

Solve the anisotropic minimal surface equation with its natural (free)
boundary condition on the wall, compute the discrete anisotropic geometry of
the solved graph, and probe the identities, inequalities, and flatness
phenomena that the solutions satisfy.
"""

from .boundary_data import evaluate_data_spec
from .domain import (
    HalfDomain,
    Mesh,
    Tag,
    build_mesh,
)
from .geometry import (
    GraphGeometry,
    compute_geometry,
    surface_gradient,
)
from .integrand import EllipticIntegrand
from .solver import (
    GraphFunction,
    SolveConfig,
    SolveReport,
    solve,
    wall_flux_residuals,
)
from .verify import (
    CheckReport,
    GradientEstimateRecord,
    area_growth_check,
    check_area_element_identity,
    check_boundary_tangency,
    check_first_variation,
    check_interior_minimality,
    check_subharmonicity,
    check_wall_condition,
    check_wall_principal_direction,
    fit_gradient_constants,
    functional_inequality_diagnostics,
    gradient_estimate_probe,
    gradient_estimate_records,
    holdout_satisfaction,
    liouville_probe,
    mean_value_probe,
)

__version__ = "0.1.0"
