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

import importlib

# Each submodule and the public names it defines.  ``import torusflow``
# loads no submodule: a name is imported on first use (PEP 562), so a command
# pays only for the modules it runs.
_EXPORTS = {
    "grid": ("Grid", "Density", "ScalarField", "VectorField", "make_grid", "normalize"),
    "energy": ("InternalEnergy", "RegularizedEnergy", "regularize", "kl_prox"),
    "interaction": (
        "DriftModel",
        "DriftConstants",
        "potential_from_kernel",
        "velocity_field",
        "estimate_constants",
    ),
    "transport": ("TransportResult", "cost_matrix", "sinkhorn_w2", "species_w2_sq", "jko_step"),
    "jko": ("Problem", "Trajectory", "run_jko", "el_residual"),
    "parabolic": ("run_parabolic",),
    "diagnostics": (
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
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("cli", "config", *_EXPORTS)

__all__ = ["__version__", *_SOURCE]


def __getattr__(name: str):
    if name in _SOURCE:
        return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
