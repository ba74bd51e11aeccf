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
    kl_prox,
    regularize,
)
from .grid import (
    Density,
    Grid,
    ScalarField,
    VectorField,
    make_grid,
    normalize,
)
from .interaction import (
    DriftConstants,
    DriftModel,
    estimate_constants,
    potential_from_kernel,
    velocity_field,
)
from .jko import Problem, Trajectory, el_residual, run_jko
from .parabolic import run_parabolic
from .transport import (
    TransportResult,
    cost_matrix,
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
    "normalize",
    "InternalEnergy",
    "RegularizedEnergy",
    "regularize",
    "kl_prox",
    "DriftModel",
    "DriftConstants",
    "potential_from_kernel",
    "velocity_field",
    "estimate_constants",
    "TransportResult",
    "cost_matrix",
    "sinkhorn_w2",
    "species_w2_sq",
    "jko_step",
    "Problem",
    "Trajectory",
    "run_jko",
    "el_residual",
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
