"""Conserved, monotone and asymptotic quantities of a flow state.

One :class:`DiagnosticsRecord` summarizes a surface at an instant:
area, enclosed volume, Willmore energy, tracefree curvature energy,
total Gauss curvature, the dissipation integrals, sup norms of the
tracefree form and of Delta^2 H, and the curvature concentration.
Records serialize to CSV with a fixed column order and full float
precision, so files from repeated runs are byte-comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mesh as mesh_mod
from . import radial
from .mesh import TriangleMesh
from .radial import RadialGraphState
from .spherical import SphericalField

__all__ = [
    "DiagnosticsRecord",
    "CSV_COLUMNS",
    "compute_record",
    "energies",
    "concentration",
    "gap_residual",
    "codazzi_residual",
    "linearized_rate",
    "limiting_radius",
    "fit_exponential",
    "check_monotonicity",
    "MonotonicityReport",
    "csv_header",
    "write_csv",
    "read_csv",
]

CSV_COLUMNS = (
    "time",
    "area",
    "volume",
    "willmore",
    "ao2",
    "intK",
    "dH2",
    "gradDH2",
    "aoInf",
    "gapResidual",
    "alpha",
)

_FMT = "%.17g"


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Snapshot of the standard observables for one surface.

    Attributes map to CSV columns in the order of ``CSV_COLUMNS``:
    time, area, volume, Willmore energy (1/4 int H^2), tracefree energy
    int |A*|^2, total Gauss curvature, int |Delta H|^2,
    int |grad Delta H|^2, sup |A*|, sup |Delta^2 H| and the largest
    curvature mass alpha in a ball of the configured radius. The
    backend tag is carried alongside but not serialized.
    """

    time: float
    area: float
    volume: float
    willmore: float
    ao2: float
    int_gauss: float
    dh2: float
    grad_dh2: float
    ao_inf: float
    gap_residual: float
    alpha: float
    backend: str = ""

    def as_tuple(self):
        return (
            self.time,
            self.area,
            self.volume,
            self.willmore,
            self.ao2,
            self.int_gauss,
            self.dh2,
            self.grad_dh2,
            self.ao_inf,
            self.gap_residual,
            self.alpha,
        )

    def to_csv_row(self) -> str:
        return ",".join(_FMT % x for x in self.as_tuple())


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def write_csv(records, path) -> None:
    with open(path, "w") as fh:
        fh.write(csv_header() + "\n")
        for rec in records:
            fh.write(rec.to_csv_row() + "\n")


def read_csv(path):
    """Read rows written by :func:`write_csv` back into records."""
    out = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != csv_header():
            raise ValueError(f"unexpected diagnostics header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            vals = [float(x) for x in line.split(",")]
            if len(vals) != len(CSV_COLUMNS):
                raise ValueError("short diagnostics row")
            out.append(DiagnosticsRecord(*vals))
    return out


# -- per-backend assembly ----------------------------------------------------
# Per backend, one function for the curvature fields, one for the fields of
# the Delta^2 H chain and one for alpha (most of a record's cost); every query
# below reads from these, so the cheap ones skip the chain.


def _spectral_curvature(state: RadialGraphState) -> dict:
    b = radial.curvature_bundle(state)
    return {
        "area": radial.area(state),
        "volume": radial.volume(state),
        "willmore": 0.25 * radial.integrate(state, b.mean**2),
        "ao2": radial.integrate(state, b.norm_ao_sq),
        "int_gauss": radial.integrate(state, b.gauss),
        "ao_inf": float(np.sqrt(b.norm_ao_sq.max())),
    }


def _spectral_chain(state: RadialGraphState) -> dict:
    _, w1, w2 = radial.laplacian_chain(state)
    grad_w1 = radial.gradient_norm_sq(state, SphericalField(state.grid, values=w1))
    return {
        "dh2": radial.integrate(state, w1**2),
        "grad_dh2": radial.integrate(state, grad_w1),
        "gap_residual": float(np.abs(w2).max()),
    }


def _spectral_alpha(state: RadialGraphState, radius: float) -> float:
    b = radial.curvature_bundle(state)
    pts, wts = radial.node_cloud(state)
    return mesh_mod.max_ball_sum(pts, pts, b.norm_a_sq.ravel() * wts, radius)


def _mesh_curvature(m: TriangleMesh) -> dict:
    _, M = mesh_mod.build_operators(m)
    H = mesh_mod.mean_curvature(m)
    ao2, _ = mesh_mod.tracefree_norm_sq(m)
    return {
        "area": mesh_mod.area(m),
        "volume": mesh_mod.signed_volume(m),
        "willmore": 0.25 * float(M @ (H * H)),
        "ao2": float(M @ ao2),
        "int_gauss": float(M @ mesh_mod.gauss_curvature(m)),
        "ao_inf": float(np.sqrt(ao2.max())),
    }


def _mesh_chain(m: TriangleMesh) -> dict:
    _, M = mesh_mod.build_operators(m)
    _, w1, w2 = mesh_mod.laplacian_chain(m)
    return {
        "dh2": float(M @ (w1 * w1)),
        "grad_dh2": mesh_mod.dirichlet_energy(m, w1),
        "gap_residual": float(np.abs(w2).max()),
    }


def _backend(state):
    """(backend name, curvature fields, chain fields, alpha) for a state."""
    if isinstance(state, RadialGraphState):
        return "spectral", _spectral_curvature, _spectral_chain, _spectral_alpha
    if isinstance(state, TriangleMesh):
        return "mesh", _mesh_curvature, _mesh_chain, mesh_mod.concentration
    raise TypeError(f"no diagnostics for {type(state).__name__}")


def compute_record(state, concentration_radius: float = 0.25) -> DiagnosticsRecord:
    """Full diagnostics for a radial-graph state or a triangle mesh."""
    name, curvature, chain, alpha = _backend(state)
    return DiagnosticsRecord(
        time=state.time,
        **curvature(state),
        **chain(state),
        alpha=alpha(state, concentration_radius),
        backend=name,
    )


def energies(state) -> dict:
    """Area, volume, Willmore and tracefree energies, as in a record."""
    f = _backend(state)[1](state)
    return {k: f[k] for k in ("area", "volume", "willmore", "ao2")}


def concentration(state, radius: float) -> float:
    """Curvature concentration sup_x int_{B(x, r)} |A|^2 d mu."""
    return _backend(state)[3](state, radius)


def gap_residual(state):
    """(sup |Delta^2 H|, int |grad Delta H|^2 d mu).

    Both vanish exactly on round spheres; away from them the pair
    measures the distance to stationarity in sup and energy norms.
    """
    f = _backend(state)[2](state)
    return f["gap_residual"], f["grad_dh2"]


def codazzi_residual(state) -> float:
    """int |grad H|^2 over 4 int |grad |A*||^2, reported as 0 when both vanish.

    For smooth closed surfaces the numerator is controlled by the
    denominator; the discrete ratio is a resolution diagnostic. Both
    integrals sit at rounding level on round spheres, where the ratio
    is defined as zero.
    """
    tiny = 1e-18
    if isinstance(state, RadialGraphState):
        b = radial.curvature_bundle(state)
        grid = state.grid
        num = radial.integrate(
            state,
            radial.gradient_norm_sq(state, SphericalField(grid, values=b.mean)),
        )
        s = np.sqrt(b.norm_ao_sq)
        den = 4.0 * radial.integrate(
            state,
            radial.gradient_norm_sq(state, SphericalField(grid, values=s)),
        )
    elif isinstance(state, TriangleMesh):
        H = mesh_mod.mean_curvature(state)
        ao2, _ = mesh_mod.tracefree_norm_sq(state)
        num = mesh_mod.dirichlet_energy(state, H)
        den = 4.0 * mesh_mod.dirichlet_energy(state, np.sqrt(ao2))
    else:
        raise TypeError(f"no diagnostics for {type(state).__name__}")
    if abs(den) < tiny:
        return 0.0 if abs(num) < tiny else math.inf
    return num / den


# -- asymptotics -------------------------------------------------------------


def linearized_rate(l: int, rho_inf: float) -> float:
    """Decay rate of the degree-l graph mode about a sphere of radius rho_inf.

    The linearized operator acts on degree-l harmonics as
    -(l + 2)(l + 1)^2 l^2 (l - 1) / rho_inf^6; degrees 0 and 1 are
    neutral (volume shift and translations).
    """
    if l < 0:
        raise ValueError("degree must be nonnegative")
    if rho_inf <= 0.0:
        raise ValueError("rho_inf must be positive")
    # + 0.0 turns the l = 1 product's negative zero into plain zero
    return -(l + 2.0) * (l + 1.0) ** 2 * l**2 * (l - 1.0) / rho_inf**6 + 0.0


def limiting_radius(volume: float) -> float:
    """Radius of the round sphere with the given enclosed volume."""
    if volume <= 0.0:
        raise ValueError("volume must be positive")
    return (3.0 * volume / (4.0 * np.pi)) ** (1.0 / 3.0)


def fit_exponential(times, values, tail_fraction: float = 0.5):
    """Log-linear fit of values ~ amplitude * exp(rate * t) on the tail.

    The last ``tail_fraction`` of the samples (at least three) enter the
    fit; values must be positive there. Returns (rate, amplitude).
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("times and values must be matching 1-d arrays")
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    n = len(t)
    k = max(3, int(np.ceil(n * tail_fraction)))
    if k > n:
        raise ValueError(f"need at least 3 samples, got {n}")
    t = t[n - k :]
    v = v[n - k :]
    if v.min() <= 0.0:
        raise ValueError("tail values must be positive for a log-linear fit")
    design = np.stack([t, np.ones_like(t)], axis=1)
    sol, *_ = np.linalg.lstsq(design, np.log(v), rcond=None)
    return float(sol[0]), float(np.exp(sol[1]))


@dataclass(frozen=True)
class MonotonicityReport:
    """Interval-by-interval audit of the flow's structural inequalities."""

    area_violations: tuple
    ao2_violations: tuple
    volume_drift: float
    lyapunov_fraction: float
    intervals: int

    @property
    def monotone(self) -> bool:
        return not self.area_violations and not self.ao2_violations


def check_monotonicity(records, slack: float = 0.1) -> MonotonicityReport:
    """Audit area and tracefree-energy decay across a record sequence.

    Area and int |A*|^2 must not increase between consecutive records
    (violations are indexed by the left record). Volume drift is the
    largest relative deviation from the initial volume. The Lyapunov
    fraction counts intervals on which the tracefree energy dissipates
    at least as fast as (1 - slack)/2 times the trapezoid average of
    int |grad Delta H|^2.
    """
    recs = list(records)
    if len(recs) < 2:
        raise ValueError("need at least two records")
    area_bad = []
    ao2_bad = []
    lyap_ok = 0
    v0 = recs[0].volume
    drift = 0.0
    n = len(recs) - 1
    for i in range(n):
        a, b = recs[i], recs[i + 1]
        if b.area > a.area:
            area_bad.append(i)
        if b.ao2 > a.ao2:
            ao2_bad.append(i)
        drift = max(drift, abs(b.volume / v0 - 1.0))
        dt = b.time - a.time
        if dt > 0.0:
            rate = (b.ao2 - a.ao2) / dt
            bound = -0.5 * (1.0 - slack) * 0.5 * (a.grad_dh2 + b.grad_dh2)
            if rate <= bound:
                lyap_ok += 1
    return MonotonicityReport(
        area_violations=tuple(area_bad),
        ao2_violations=tuple(ao2_bad),
        volume_drift=drift,
        lyapunov_fraction=lyap_ok / n,
        intervals=n,
    )
