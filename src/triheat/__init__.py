"""Sixth-order triharmonic heat flow of closed surfaces.

Two backends integrate f_t = -(Delta^2 H) nu: a spectral radial-graph
representation for star-shaped surfaces and a cotangent-Laplacian
triangle mesh for general topology-sphere geometry. Shared diagnostics
track the conserved volume, dissipated area, curvature energies and the
distance to the limiting round sphere.
"""

from .config import FlowConfig, format_config, parse_config, parse_config_text
from .diagnostics import (
    CSV_COLUMNS,
    DiagnosticsRecord,
    MonotonicityReport,
    check_monotonicity,
    codazzi_residual,
    compute_record,
    concentration,
    energies,
    fit_exponential,
    gap_residual,
    limiting_radius,
    linearized_rate,
)
from .flow import (
    Trajectory,
    TrajectoryEntry,
    auto_dt,
    rescale,
    run,
    step_mesh,
    step_spectral,
)
from .mesh import TriangleMesh, load_obj, save_obj
from .radial import (
    CurvatureBundle,
    RadialGraphState,
    curvature_bundle,
    flow_speed,
    induced_laplacian,
    laplacian_chain,
    rho_velocity,
)
from .shapes import icosphere, sample_graph_mesh
from .spherical import GridSpec

__version__ = "0.1.0"

__all__ = [
    "FlowConfig",
    "format_config",
    "parse_config",
    "parse_config_text",
    "CSV_COLUMNS",
    "DiagnosticsRecord",
    "MonotonicityReport",
    "check_monotonicity",
    "codazzi_residual",
    "compute_record",
    "concentration",
    "energies",
    "fit_exponential",
    "gap_residual",
    "limiting_radius",
    "linearized_rate",
    "Trajectory",
    "TrajectoryEntry",
    "auto_dt",
    "rescale",
    "run",
    "step_mesh",
    "step_spectral",
    "TriangleMesh",
    "load_obj",
    "save_obj",
    "CurvatureBundle",
    "RadialGraphState",
    "curvature_bundle",
    "flow_speed",
    "induced_laplacian",
    "laplacian_chain",
    "rho_velocity",
    "icosphere",
    "sample_graph_mesh",
    "GridSpec",
    "__version__",
]
