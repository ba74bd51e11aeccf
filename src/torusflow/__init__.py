"""Drift-diffusion flows on the periodic torus.

Two routes to the same family of PDEs

    d_t rho_i = Lap F_i'(rho_i) - div(rho_i V_i[rho]),

a semi-implicit minimizing-movement scheme in the Wasserstein metric
(potential drifts, entropic inner solver) and an explicit conservative
finite-volume scheme with a uniformly elliptic regularization (arbitrary
convolution drifts), plus diagnostics that check the dissipation, regularity
and stability estimates the schemes are supposed to satisfy.
"""

__version__ = "0.1.0"

from .diagnostics import (
    Ledger,
    StabilitySeries,
    TestFunction,
    energy_ledger,
    holder_check,
    separable_test_function,
    sobolev_estimate,
    sobolev_integrand,
    stability_compare,
    weak_residual,
)
from .energy import (
    InternalEnergy,
    RegularizedEnergy,
    evaluate,
    kl_prox,
    mccann_check,
    regularize,
)
from .grid import (
    Density,
    Grid,
    ScalarField,
    VectorField,
    div,
    grad,
    make_grid,
    normalize,
    quotient_distance,
)
from .interaction import (
    DriftConstants,
    DriftModel,
    estimate_constants,
    potential_from_kernel,
    stability_constant,
    velocity_field,
)
from .jko import Problem, Trajectory, el_residual, run_jko, trig_vector_field
from .parabolic import CFLError, ParabolicState, parabolic_step, run_parabolic
from .transport import (
    TransportResult,
    cost_matrix,
    exact_w2_permutation,
    jko_step,
    sinkhorn_w2,
    species_w2_sq,
)

__all__ = [
    "__version__",
    "Grid",
    "Density",
    "ScalarField",
    "VectorField",
    "make_grid",
    "quotient_distance",
    "normalize",
    "grad",
    "div",
    "InternalEnergy",
    "RegularizedEnergy",
    "evaluate",
    "regularize",
    "mccann_check",
    "kl_prox",
    "DriftModel",
    "DriftConstants",
    "potential_from_kernel",
    "velocity_field",
    "estimate_constants",
    "stability_constant",
    "TransportResult",
    "cost_matrix",
    "sinkhorn_w2",
    "species_w2_sq",
    "exact_w2_permutation",
    "jko_step",
    "Problem",
    "Trajectory",
    "run_jko",
    "el_residual",
    "trig_vector_field",
    "ParabolicState",
    "CFLError",
    "parabolic_step",
    "run_parabolic",
    "Ledger",
    "TestFunction",
    "StabilitySeries",
    "energy_ledger",
    "holder_check",
    "sobolev_integrand",
    "sobolev_estimate",
    "separable_test_function",
    "weak_residual",
    "stability_compare",
]
