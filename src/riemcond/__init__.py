"""Condition numbers of Riemannian least-squares problems via Weingarten maps,
applied end-to-end to n-camera triangulation."""

from .condition import (
    ConditionReport,
    ProblemDerivative,
    ill_posedness_certificate,
    kappa_bounds,
    kappa_cpp,
    kappa_cpp_curvatures,
    kappa_cpp_from_weingarten,
    kappa_gcpp,
    kappa_relative,
    spectral_norm_metric,
)
from .curvature import (
    WeingartenData,
    critical_radii,
    principal_curvatures,
    second_fundamental_contraction,
    weingarten,
    weingarten_data,
)
from .errors import (
    AtInfinity,
    DegenerateKernel,
    DomainEscape,
    EmptyInput,
    InvalidGeometry,
    NonFinite,
    NotNormal,
    NotSPD,
    OutsideDomain,
    RankDeficient,
    RiemcondError,
    SingularR,
    ZeroNormal,
    ZeroOutput,
)
from .experiments import (
    RigSpec,
    SweepRecord,
    detect_dips,
    experiment_sweep,
    experiment_validate,
    gen_rig,
    log_grid,
    prefix_rig,
    random_unit_normal,
    ratio_stats,
    records_to_csv,
    singular_offsets_rel,
)
from .manifold import (
    Parametrization,
    TangentFrame,
    affine,
    builtin,
    codim1_unit_normal,
    graph2d,
    paraboloid,
    project_normal,
    project_tangent,
    sphere,
    tangent_frame,
)
from .multiview import (
    Camera,
    CameraRig,
    as_parametrization,
    mv_condition,
    mv_domain_check,
    mv_factors,
    mv_jacobian,
    mv_kappa,
    mv_project,
    mv_weingarten,
    mv_weingarten_hat,
    rig_from_dict,
    rig_to_dict,
    triangulate_linear,
)
from .solver import (
    SolveResult,
    SolverOptions,
    Status,
    cpp_certificate,
    lm_minimize,
    mv_certificate,
    project_point,
    triangulate,
)

__version__ = "0.1.0"
