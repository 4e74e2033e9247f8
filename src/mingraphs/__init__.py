"""Minimal graphs over the half-plane: level curves, curvature, and checks."""

from .analytic import (
    AffineMap,
    AnalyticMap,
    Jet2,
    PowerAffineMap,
    ScaledMap,
    SumMap,
    jet_affine,
    jet_pow_affine,
    log_derivative,
)
from .errors import (
    ConvergenceError,
    DomainError,
    EmptyInteriorError,
    ParameterError,
    QuadratureError,
    SingularityError,
)
from .graphfield import (
    F_operator,
    ResidualReport,
    ScalarField2D,
    laplacian,
    levelset_curvature_field,
    msr_residual,
    nondivergence_gap,
    preimages,
    reconstruct_u,
    residual_convergence_order,
)
from .levels import (
    BoundaryTrace,
    LevelCurveSample,
    LevelCurveSpec,
    boundary_trace,
    curvature_closed_form,
    curvature_fd_oracle,
    curvature_generic,
    curvature_h_image,
    sample_level_curve,
    sigma_for_level,
    tau_partials,
    tau_partials_conjugate_form,
)
from .verify import (
    BoundaryArgumentData,
    SampleGrid,
    VerificationReport,
    disk_transfer_check,
    estimate_asymptotic_angles,
    poisson_im_log_hprime,
    poisson_re_ratio,
    verify_lemma2,
    verify_poisson,
    verify_scaling,
    verify_thm1,
    verify_thm2,
)
from .weierstrass import (
    SurfacePoint,
    WeierstrassPair,
    eval_surface,
    g_prime,
    g_value,
    height_via_integral,
    jacobian_det,
    lw_family,
    planar_pair,
    scale_solution,
)

__version__ = "0.1.0"
