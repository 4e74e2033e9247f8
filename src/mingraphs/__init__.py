"""Minimal graphs over the half-plane: level curves, curvature, and checks.

The public names load their submodule on first access (PEP 562), so
``import mingraphs`` costs almost nothing and a CLI command imports only
the modules it runs.  ``from mingraphs import X`` works as with eager
imports.
"""

import importlib

#: Submodule -> the public names it exports through the package.
_EXPORTS = {
    "analytic": (
        "AffineMap", "AnalyticMap", "Jet2", "PowerAffineMap", "ScaledMap", "SumMap",
        "log_derivative",
    ),
    "errors": (
        "DomainError", "EmptyInteriorError", "ParameterError", "QuadratureError", "SingularityError",
    ),
    "graphfield": (
        "F_operator", "ResidualReport", "ScalarField2D", "laplacian",
        "levelset_curvature_field", "msr_residual", "nondivergence_gap", "preimages",
        "reconstruct_u", "residual_convergence_order",
    ),
    "levels": (
        "HeightRecord", "LevelCurve", "LevelCurveSpec", "boundary_trace", "curvature_generic",
        "sample_level_curve", "sigma_for_level",
    ),
    "verify": (
        "Admitted", "BoundaryArgumentData", "SampleGrid", "VerificationReport", "admit",
        "disk_transfer_check", "estimate_asymptotic_angles", "poisson_kernels", "verify_lemma2",
        "verify_poisson", "verify_scaling", "verify_thm1", "verify_thm2",
    ),
    "weierstrass": (
        "SurfacePoint", "WeierstrassPair", "eval_surface", "g_prime", "g_value",
        "lw_family", "planar_pair", "scale_solution",
    ),
}

_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
